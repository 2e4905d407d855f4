//! Calendar and capture-interval arithmetic.
//!
//! GDELT 2.0 publishes a new pair of *Events*/*Mentions* files every
//! 15 minutes; the paper measures all publishing delays in units of these
//! 15-minute **capture intervals** (96 per day, 672 per week, 35 040 per
//! 365-day year — the paper's ubiquitous max delay of 35 135 intervals is
//! "one year plus one day minus one interval"). The GDELT 2.0 archive
//! starts on **2015-02-18**, which serves as the interval epoch.
//!
//! We implement the proleptic Gregorian calendar from scratch (Hinnant's
//! `days_from_civil` / `civil_from_days` algorithms) rather than pulling in
//! a date-time dependency: the system only ever needs UTC civil dates,
//! `YYYYMMDD[HHMMSS]` parsing, and quarter bucketing.
//!
//! Every timestamp of a convert goes through [`Date::to_days`] and every
//! mention's through [`CaptureInterval::quarter`], so over the archive's
//! span (2015 to 2078) both are table lookups: two tables built at
//! compile time by the same two algorithms, which stay the path for any
//! date outside it.

use crate::error::{ModelError, Result};
use std::fmt;

/// Number of capture intervals per day (24h / 15min).
pub const INTERVALS_PER_DAY: u32 = 96;
/// Number of capture intervals per week.
pub const INTERVALS_PER_WEEK: u32 = 7 * INTERVALS_PER_DAY;
/// Number of capture intervals per (365-day) year.
pub const INTERVALS_PER_YEAR: u32 = 365 * INTERVALS_PER_DAY;
/// Seconds per capture interval.
pub const SECONDS_PER_INTERVAL: i64 = 15 * 60;

/// The first day covered by the GDELT 2.0 Event Database (paper §V).
pub const GDELT_EPOCH: Date = Date { year: 2015, month: 2, day: 18 };

/// Days between 1970-01-01 and [`GDELT_EPOCH`].
const GDELT_EPOCH_DAYS: i64 = 16_484; // validated in tests

/// A proleptic-Gregorian calendar date (UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Gregorian year, e.g. 2015.
    pub year: i32,
    /// Month 1..=12.
    pub month: u8,
    /// Day of month 1..=31.
    pub day: u8,
}

/// Days-since-1970-01-01 from a civil date (Hinnant's algorithm).
#[inline]
const fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = y - (m <= 2) as i32;
    let era = (if y >= 0 { y } else { y - 399 }) / 400;
    let yoe = (y - era * 400) as i64; // [0, 399]
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64; // [0, 11]
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era as i64 * 146_097 + doe - 719_468
}

/// Civil date from days-since-1970-01-01 (Hinnant's algorithm).
#[inline]
const fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = (if z >= 0 { z } else { z - 146_096 }) / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    ((y + (m <= 2) as i64) as i32, m, d)
}

/// First year of the calendar tables: the GDELT 2.0 archive starts in it.
const SPAN_FIRST_YEAR: i32 = 2015;
/// Years the calendar tables cover (2015 to 2078).
const SPAN_YEARS: usize = 64;
/// Slots per year of [`DAY_OF_DATE`]: twelve months of 31.
const SLOTS_PER_YEAR: usize = 12 * 31;
/// Days between 1970-01-01 and the span's first day, 2015-01-01.
const SPAN_FIRST_DAY: i64 = days_from_civil(SPAN_FIRST_YEAR, 1, 1);
/// Days of the span.
const SPAN_DAYS: usize =
    (days_from_civil(SPAN_FIRST_YEAR + SPAN_YEARS as i32, 1, 1) - SPAN_FIRST_DAY) as usize;
/// A [`DAY_OF_DATE`] slot no date has (February 30th).
const NO_DAY: u16 = u16::MAX;

/// Day of the span of each date in it, at slot `(year − 2015) · 372 +
/// (month − 1) · 31 + day − 1`; [`NO_DAY`] where no date is.
static DAY_OF_DATE: [u16; SPAN_YEARS * SLOTS_PER_YEAR] = {
    let mut table = [NO_DAY; SPAN_YEARS * SLOTS_PER_YEAR];
    let mut day = 0;
    while day < SPAN_DAYS {
        let (y, m, d) = civil_from_days(SPAN_FIRST_DAY + day as i64);
        let slot = (y - SPAN_FIRST_YEAR) as usize * SLOTS_PER_YEAR + (m as usize - 1) * 31;
        table[slot + d as usize - 1] = day as u16;
        day += 1;
    }
    table
};

/// [`Quarter::linear`] of each day of the span.
static QUARTER_OF_DAY: [u16; SPAN_DAYS] = {
    let mut table = [0; SPAN_DAYS];
    let mut day = 0;
    while day < SPAN_DAYS {
        let (y, m, _) = civil_from_days(SPAN_FIRST_DAY + day as i64);
        table[day] = (y * 4 + (m as i32 - 1) / 3) as u16;
        day += 1;
    }
    table
};

impl Date {
    /// Construct a validated date.
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self> {
        let d = Date { year, month, day };
        if month == 0 || month > 12 {
            return Err(ModelError::OutOfRange { field: "month", value: month.to_string() });
        }
        if day == 0 || u32::from(day) > d.days_in_month() {
            return Err(ModelError::OutOfRange { field: "day", value: day.to_string() });
        }
        Ok(d)
    }

    /// True for Gregorian leap years.
    #[inline]
    pub fn is_leap_year(year: i32) -> bool {
        (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
    }

    /// Number of days in this date's month.
    #[inline]
    pub fn days_in_month(self) -> u32 {
        match self.month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 if Self::is_leap_year(self.year) => 29,
            2 => 28,
            _ => 0,
        }
    }

    /// Days since 1970-01-01 (may be negative).
    #[inline]
    pub fn to_days(self) -> i64 {
        match self.day_of_span() {
            Some(day) => SPAN_FIRST_DAY + i64::from(day),
            None => days_from_civil(self.year, u32::from(self.month), u32::from(self.day)),
        }
    }

    /// The date's day of the tables' span, if it is a date of the span.
    #[inline]
    fn day_of_span(self) -> Option<u16> {
        let year = usize::try_from(self.year.wrapping_sub(SPAN_FIRST_YEAR)).ok()?;
        let (month, day) = (usize::from(self.month), usize::from(self.day));
        if year >= SPAN_YEARS || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return None;
        }
        let slot = year * SLOTS_PER_YEAR + (month - 1) * 31 + day - 1;
        DAY_OF_DATE.get(slot).copied().filter(|&day| day != NO_DAY)
    }

    /// Inverse of [`Date::to_days`].
    #[inline]
    pub fn from_days(days: i64) -> Self {
        let (y, m, d) = civil_from_days(days);
        Date { year: y, month: m as u8, day: d as u8 }
    }

    /// Parse a GDELT `YYYYMMDD` literal.
    pub fn parse_yyyymmdd(s: &str) -> Result<Self> {
        let b = s.as_bytes();
        if b.len() != 8 || !b.iter().all(u8::is_ascii_digit) {
            return Err(ModelError::InvalidDateTime {
                literal: s.chars().take(24).collect(),
                reason: "expected 8 digits (YYYYMMDD)",
            });
        }
        let num: u32 = s.parse().expect("digits");
        Self::from_yyyymmdd(num)
    }

    /// Build from a packed `YYYYMMDD` integer (the form GDELT stores in the
    /// `SQLDATE`/`Day` column): at most eight digits.
    pub fn from_yyyymmdd(num: u32) -> Result<Self> {
        if num > 99_999_999 {
            return Err(ModelError::InvalidDateTime {
                literal: num.to_string(),
                reason: "more than 8 digits (YYYYMMDD)",
            });
        }
        let year = (num / 10_000) as i32;
        let month = ((num / 100) % 100) as u8;
        let day = (num % 100) as u8;
        Self::new(year, month, day).map_err(|_| ModelError::InvalidDateTime {
            literal: num.to_string(),
            reason: "month/day out of range",
        })
    }

    /// Render as a packed `YYYYMMDD` integer.
    #[inline]
    pub fn to_yyyymmdd(self) -> u32 {
        self.year as u32 * 10_000 + u32::from(self.month) * 100 + u32::from(self.day)
    }

    /// The calendar quarter containing this date.
    #[inline]
    pub fn quarter(self) -> Quarter {
        Quarter { year: self.year as i16, q: (self.month - 1) / 3 + 1 }
    }

    /// Date advanced by `n` days (may be negative).
    #[inline]
    pub fn add_days(self, n: i64) -> Self {
        Date::from_days(self.to_days() + n)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A UTC date-time with second resolution, as used by the GDELT
/// `DATEADDED` / `MentionTimeDate` columns (`YYYYMMDDHHMMSS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DateTime {
    /// The civil date.
    pub date: Date,
    /// Hour 0..=23.
    pub hour: u8,
    /// Minute 0..=59.
    pub minute: u8,
    /// Second 0..=59.
    pub second: u8,
}

impl DateTime {
    /// Construct a validated date-time.
    pub fn new(date: Date, hour: u8, minute: u8, second: u8) -> Result<Self> {
        if hour > 23 {
            return Err(ModelError::OutOfRange { field: "hour", value: hour.to_string() });
        }
        if minute > 59 {
            return Err(ModelError::OutOfRange { field: "minute", value: minute.to_string() });
        }
        if second > 59 {
            return Err(ModelError::OutOfRange { field: "second", value: second.to_string() });
        }
        Ok(DateTime { date, hour, minute, second })
    }

    /// Midnight at the start of `date`.
    #[inline]
    pub fn midnight(date: Date) -> Self {
        DateTime { date, hour: 0, minute: 0, second: 0 }
    }

    /// Parse a GDELT `YYYYMMDDHHMMSS` literal.
    pub fn parse_yyyymmddhhmmss(s: &str) -> Result<Self> {
        let b = s.as_bytes();
        if b.len() != 14 || !b.iter().all(u8::is_ascii_digit) {
            return Err(ModelError::InvalidDateTime {
                literal: s.chars().take(24).collect(),
                reason: "expected 14 digits (YYYYMMDDHHMMSS)",
            });
        }
        let num: u64 = s.parse().expect("digits");
        Self::from_yyyymmddhhmmss(num)
    }

    /// Build from a packed `YYYYMMDDHHMMSS` integer: at most fourteen
    /// digits.
    pub fn from_yyyymmddhhmmss(num: u64) -> Result<Self> {
        if num > 99_999_999_999_999 {
            return Err(ModelError::InvalidDateTime {
                literal: num.to_string(),
                reason: "more than 14 digits (YYYYMMDDHHMMSS)",
            });
        }
        let date = Date::from_yyyymmdd((num / 1_000_000) as u32)?;
        let hour = ((num / 10_000) % 100) as u8;
        let minute = ((num / 100) % 100) as u8;
        let second = (num % 100) as u8;
        Self::new(date, hour, minute, second).map_err(|_| ModelError::InvalidDateTime {
            literal: num.to_string(),
            reason: "time component out of range",
        })
    }

    /// Render as a packed `YYYYMMDDHHMMSS` integer.
    #[inline]
    pub fn to_yyyymmddhhmmss(self) -> u64 {
        self.date.to_yyyymmdd() as u64 * 1_000_000
            + u64::from(self.hour) * 10_000
            + u64::from(self.minute) * 100
            + u64::from(self.second)
    }

    /// Seconds since 1970-01-01T00:00:00Z.
    #[inline]
    pub fn to_unix_seconds(self) -> i64 {
        self.date.to_days() * 86_400
            + i64::from(self.hour) * 3_600
            + i64::from(self.minute) * 60
            + i64::from(self.second)
    }

    /// Inverse of [`DateTime::to_unix_seconds`].
    #[inline]
    pub fn from_unix_seconds(secs: i64) -> Self {
        let days = secs.div_euclid(86_400);
        let rem = secs.rem_euclid(86_400);
        DateTime {
            date: Date::from_days(days),
            hour: (rem / 3_600) as u8,
            minute: ((rem % 3_600) / 60) as u8,
            second: (rem % 60) as u8,
        }
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}T{:02}:{:02}:{:02}Z", self.date, self.hour, self.minute, self.second)
    }
}

/// A 15-minute GDELT capture interval, counted from midnight of
/// [`GDELT_EPOCH`] (2015-02-18). Interval 0 covers 00:00–00:15 of that day.
///
/// All publishing delays in the paper are differences of these values
/// (e.g. 96 intervals = 24 h; 35 135 ≈ one year).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CaptureInterval(pub u32);

impl CaptureInterval {
    /// The interval containing `dt` (floor). Fails for timestamps before
    /// the GDELT 2.0 epoch.
    pub fn from_datetime(dt: DateTime) -> Result<Self> {
        let epoch_secs = GDELT_EPOCH_DAYS * 86_400;
        let secs = dt.to_unix_seconds();
        if secs < epoch_secs {
            return Err(ModelError::BeforeEpoch { literal: dt.to_yyyymmddhhmmss().to_string() });
        }
        let idx = (secs - epoch_secs) / SECONDS_PER_INTERVAL;
        u32::try_from(idx)
            .map(CaptureInterval)
            .map_err(|_| ModelError::IdOverflow { kind: "capture interval", value: idx as u64 })
    }

    /// Start-of-interval timestamp.
    #[inline]
    pub fn start(self) -> DateTime {
        DateTime::from_unix_seconds(
            GDELT_EPOCH_DAYS * 86_400 + i64::from(self.0) * SECONDS_PER_INTERVAL,
        )
    }

    /// The civil date the interval falls on.
    #[inline]
    pub fn date(self) -> Date {
        GDELT_EPOCH.add_days(i64::from(self.0 / INTERVALS_PER_DAY))
    }

    /// Calendar quarter the interval falls in.
    #[inline]
    pub fn quarter(self) -> Quarter {
        let day =
            (GDELT_EPOCH_DAYS - SPAN_FIRST_DAY) as usize + (self.0 / INTERVALS_PER_DAY) as usize;
        match QUARTER_OF_DAY.get(day) {
            Some(&linear) => Quarter::from_linear(i32::from(linear)),
            None => self.date().quarter(),
        }
    }

    /// Delay in intervals from `event` to `self` (saturating at zero:
    /// GDELT occasionally records mentions scraped before the recorded
    /// event time — one of the Table II data problems).
    #[inline]
    pub fn delay_since(self, event: CaptureInterval) -> u32 {
        self.0.saturating_sub(event.0)
    }
}

impl fmt::Display for CaptureInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}@{}", self.0, self.start())
    }
}

/// A calendar quarter, the aggregation unit of all the paper's time-series
/// figures (Figs 3–6, 10, 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Quarter {
    /// Gregorian year.
    pub year: i16,
    /// Quarter 1..=4.
    pub q: u8,
}

impl Quarter {
    /// Linear index (quarters since year 0) for dense bucketing.
    #[inline]
    pub fn linear(self) -> i32 {
        i32::from(self.year) * 4 + i32::from(self.q) - 1
    }

    /// Inverse of [`Quarter::linear`].
    #[inline]
    pub fn from_linear(idx: i32) -> Self {
        Quarter { year: idx.div_euclid(4) as i16, q: (idx.rem_euclid(4) + 1) as u8 }
    }

    /// The next quarter.
    #[inline]
    pub fn next(self) -> Self {
        Self::from_linear(self.linear() + 1)
    }

    /// Inclusive iterator over quarters `self..=end`.
    pub fn range_inclusive(self, end: Quarter) -> impl Iterator<Item = Quarter> {
        (self.linear()..=end.linear()).map(Quarter::from_linear)
    }

    /// First date of the quarter.
    #[inline]
    pub fn first_date(self) -> Date {
        Date { year: i32::from(self.year), month: (self.q - 1) * 3 + 1, day: 1 }
    }
}

impl fmt::Display for Quarter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}Q{}", self.year, self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_days_constant_is_correct() {
        assert_eq!(GDELT_EPOCH.to_days(), GDELT_EPOCH_DAYS);
    }

    #[test]
    fn unix_epoch_is_day_zero() {
        assert_eq!(Date { year: 1970, month: 1, day: 1 }.to_days(), 0);
        assert_eq!(Date::from_days(0), Date { year: 1970, month: 1, day: 1 });
    }

    #[test]
    fn known_day_counts() {
        // 2000-03-01 is day 11017 (post-leap-day of a 400-divisible year).
        assert_eq!(Date { year: 2000, month: 3, day: 1 }.to_days(), 11_017);
        assert_eq!(Date { year: 2019, month: 12, day: 31 }.to_days(), 18_261);
    }

    #[test]
    fn leap_year_rules() {
        assert!(Date::is_leap_year(2000));
        assert!(Date::is_leap_year(2016));
        assert!(!Date::is_leap_year(1900));
        assert!(!Date::is_leap_year(2019));
    }

    #[test]
    fn days_in_month_handles_february() {
        assert_eq!(Date { year: 2016, month: 2, day: 1 }.days_in_month(), 29);
        assert_eq!(Date { year: 2015, month: 2, day: 1 }.days_in_month(), 28);
        assert_eq!(Date { year: 2015, month: 4, day: 1 }.days_in_month(), 30);
        assert_eq!(Date { year: 2015, month: 12, day: 1 }.days_in_month(), 31);
    }

    #[test]
    fn date_validation() {
        assert!(Date::new(2015, 2, 29).is_err());
        assert!(Date::new(2016, 2, 29).is_ok());
        assert!(Date::new(2015, 13, 1).is_err());
        assert!(Date::new(2015, 0, 1).is_err());
        assert!(Date::new(2015, 6, 0).is_err());
        assert!(Date::new(2015, 6, 31).is_err());
    }

    #[test]
    fn yyyymmdd_round_trip() {
        let d = Date::parse_yyyymmdd("20150218").unwrap();
        assert_eq!(d, GDELT_EPOCH);
        assert_eq!(d.to_yyyymmdd(), 20_150_218);
        assert!(Date::parse_yyyymmdd("2015021").is_err());
        assert!(Date::parse_yyyymmdd("2015021x").is_err());
        assert!(Date::parse_yyyymmdd("20159918").is_err());
    }

    #[test]
    fn datetime_round_trip() {
        let dt = DateTime::parse_yyyymmddhhmmss("20160612023000").unwrap();
        assert_eq!(dt.to_yyyymmddhhmmss(), 20_160_612_023_000);
        assert_eq!(dt.to_string(), "2016-06-12T02:30:00Z");
        let back = DateTime::from_unix_seconds(dt.to_unix_seconds());
        assert_eq!(back, dt);
    }

    #[test]
    fn datetime_validation() {
        assert!(DateTime::from_yyyymmddhhmmss(20_150_218_240_000).is_err());
        assert!(DateTime::from_yyyymmddhhmmss(20_150_218_006_000).is_err());
        assert!(DateTime::from_yyyymmddhhmmss(20_150_218_000_060).is_err());
        assert!(DateTime::parse_yyyymmddhhmmss("tooshort").is_err());
    }

    #[test]
    fn interval_zero_is_epoch_midnight() {
        let dt = DateTime::midnight(GDELT_EPOCH);
        let iv = CaptureInterval::from_datetime(dt).unwrap();
        assert_eq!(iv, CaptureInterval(0));
        assert_eq!(iv.start(), dt);
        assert_eq!(iv.date(), GDELT_EPOCH);
    }

    #[test]
    fn interval_floors_within_slot() {
        let dt = DateTime::new(GDELT_EPOCH, 0, 14, 59).unwrap();
        assert_eq!(CaptureInterval::from_datetime(dt).unwrap(), CaptureInterval(0));
        let dt = DateTime::new(GDELT_EPOCH, 0, 15, 0).unwrap();
        assert_eq!(CaptureInterval::from_datetime(dt).unwrap(), CaptureInterval(1));
    }

    #[test]
    fn interval_rejects_pre_epoch() {
        let dt = DateTime::midnight(Date { year: 2015, month: 2, day: 17 });
        assert!(matches!(CaptureInterval::from_datetime(dt), Err(ModelError::BeforeEpoch { .. })));
    }

    #[test]
    fn one_day_is_96_intervals() {
        let d0 = DateTime::midnight(GDELT_EPOCH);
        let d1 = DateTime::midnight(GDELT_EPOCH.add_days(1));
        let i0 = CaptureInterval::from_datetime(d0).unwrap();
        let i1 = CaptureInterval::from_datetime(d1).unwrap();
        assert_eq!(i1.delay_since(i0), INTERVALS_PER_DAY);
    }

    #[test]
    fn delay_saturates() {
        assert_eq!(CaptureInterval(5).delay_since(CaptureInterval(9)), 0);
        assert_eq!(CaptureInterval(9).delay_since(CaptureInterval(5)), 4);
    }

    #[test]
    fn paper_year_delay_constant() {
        // The paper's recurring max delay of 35135 intervals is just over a
        // year: 366 days * 96 - 1.
        assert_eq!(366 * INTERVALS_PER_DAY - 1, 35_135);
    }

    #[test]
    fn quarter_bucketing() {
        assert_eq!(GDELT_EPOCH.quarter(), Quarter { year: 2015, q: 1 });
        assert_eq!(Date { year: 2019, month: 12, day: 31 }.quarter(), Quarter { year: 2019, q: 4 });
        assert_eq!(Date { year: 2017, month: 7, day: 1 }.quarter(), Quarter { year: 2017, q: 3 });
    }

    #[test]
    fn quarter_linear_round_trip_and_range() {
        let q = Quarter { year: 2015, q: 1 };
        assert_eq!(Quarter::from_linear(q.linear()), q);
        let end = Quarter { year: 2019, q: 4 };
        let all: Vec<_> = q.range_inclusive(end).collect();
        // 2015..2019 inclusive = 5 years * 4 quarters.
        assert_eq!(all.len(), 20);
        assert_eq!(all[0], q);
        assert_eq!(*all.last().unwrap(), end);
        assert_eq!(q.next(), Quarter { year: 2015, q: 2 });
        assert_eq!(Quarter { year: 2015, q: 4 }.next(), Quarter { year: 2016, q: 1 });
    }

    #[test]
    fn quarter_display_and_first_date() {
        let q = Quarter { year: 2016, q: 3 };
        assert_eq!(q.to_string(), "2016Q3");
        assert_eq!(q.first_date(), Date { year: 2016, month: 7, day: 1 });
    }

    #[test]
    fn interval_quarter_matches_date_quarter() {
        let dt = DateTime::parse_yyyymmddhhmmss("20171005120000").unwrap();
        let iv = CaptureInterval::from_datetime(dt).unwrap();
        assert_eq!(iv.quarter(), Quarter { year: 2017, q: 4 });
    }

    #[test]
    fn civil_round_trip_sweep() {
        // Every 17 days across the whole GDELT period plus margins.
        let mut d = Date { year: 2014, month: 12, day: 1 };
        while d.year < 2021 {
            let rt = Date::from_days(d.to_days());
            assert_eq!(rt, d, "round trip failed at {d}");
            d = d.add_days(17);
        }
    }

    /// What the calendar gives for `dt`, table-free: its days since
    /// 1970, its capture interval and that interval's quarter, each by
    /// Hinnant's algorithms alone.
    fn by_calendar(dt: DateTime) -> (i64, Option<u32>, Option<Quarter>) {
        let Date { year, month, day } = dt.date;
        let days = days_from_civil(year, u32::from(month), u32::from(day));
        let secs = days * 86_400
            + i64::from(dt.hour) * 3_600
            + i64::from(dt.minute) * 60
            + i64::from(dt.second);
        let since_epoch = secs - GDELT_EPOCH_DAYS * 86_400;
        let interval = (since_epoch >= 0)
            .then(|| u32::try_from(since_epoch / SECONDS_PER_INTERVAL).ok())
            .flatten();
        let quarter = interval.map(|iv| {
            let (y, m, _) = civil_from_days(GDELT_EPOCH_DAYS + i64::from(iv / INTERVALS_PER_DAY));
            Quarter { year: y as i16, q: (m as u8 - 1) / 3 + 1 }
        });
        (days, interval, quarter)
    }

    /// What the table path gives for `dt`.
    fn by_tables(dt: DateTime) -> (i64, Option<u32>, Option<Quarter>) {
        let interval = CaptureInterval::from_datetime(dt).ok();
        (dt.date.to_days(), interval.map(|iv| iv.0), interval.map(CaptureInterval::quarter))
    }

    #[test]
    fn tables_agree_with_the_calendar_on_every_day_of_the_span() {
        let times = [(0, 0, 0), (0, 14, 59), (0, 15, 0), (11, 59, 59), (23, 45, 0), (23, 59, 59)];
        // A year of margin either side: the fallback meets the table.
        let first = SPAN_FIRST_DAY - 366;
        let last = SPAN_FIRST_DAY + SPAN_DAYS as i64 + 366;
        for days in first..last {
            let date = Date::from_days(days);
            let (y, m, d) = civil_from_days(days);
            assert_eq!((date.year, u32::from(date.month), u32::from(date.day)), (y, m, d));
            assert_eq!(Date::from_yyyymmdd(date.to_yyyymmdd()), Ok(date));
            for (h, mi, se) in times {
                let dt = DateTime { date, hour: h, minute: mi, second: se };
                assert_eq!(by_tables(dt), by_calendar(dt), "{dt}");
                let packed = DateTime::from_yyyymmddhhmmss(dt.to_yyyymmddhhmmss());
                assert_eq!(packed, Ok(dt));
            }
        }
    }

    /// What `from_yyyymmddhhmmss` must accept, by the calendar's rules:
    /// fourteen digits at most, a real date, a real time of day.
    fn valid_by_calendar(num: u64) -> Option<DateTime> {
        let date = u32::try_from(num / 1_000_000).ok().filter(|&d| d <= 99_999_999)?;
        let date = Date::new((date / 10_000) as i32, (date / 100 % 100) as u8, (date % 100) as u8);
        let time = |k: u64| (num / k % 100) as u8;
        DateTime::new(date.ok()?, time(10_000), time(100), time(1)).ok()
    }

    proptest::proptest! {
        #[test]
        fn tables_agree_with_the_calendar_on_any_stamp(
            num in proptest::prop_oneof![
                1 => proptest::prelude::any::<u64>(),
                1 => 0u64..100_000_000_000_000,
                2 => 20_141_201_000_000u64..20_800_101_000_000,
            ],
        ) {
            let parsed = DateTime::from_yyyymmddhhmmss(num).ok();
            proptest::prop_assert_eq!(parsed, valid_by_calendar(num));
            if let Some(dt) = parsed {
                proptest::prop_assert_eq!(by_tables(dt), by_calendar(dt));
            }
        }

        #[test]
        fn interval_quarters_agree_with_the_calendar(iv in proptest::prelude::any::<u32>()) {
            let iv = CaptureInterval(iv);
            proptest::prop_assert_eq!(iv.quarter(), iv.date().quarter());
            proptest::prop_assert_eq!(Some(iv.quarter()), by_calendar(iv.start()).2);
        }
    }

    #[test]
    fn over_long_stamps_do_not_wrap_into_dates() {
        // 4315117514063000 / 10^6 wraps to 20150218 in a u32.
        assert!(DateTime::from_yyyymmddhhmmss(4_315_117_514_063_000).is_err());
        assert!(DateTime::from_yyyymmddhhmmss(201_502_180_000_000).is_err());
        // Year 99999 would wrap to 1695 in a quarter's i16.
        assert!(Date::from_yyyymmdd(999_990_101).is_err());
        assert_eq!(Date::from_yyyymmdd(99_991_231).map(|d| d.quarter().year), Ok(9999));
    }
}
