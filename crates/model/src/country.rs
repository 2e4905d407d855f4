//! Country registry: TLD- and FIPS-based country resolution.
//!
//! GDELT does not record where a news *source* is located; the paper
//! (§VI-C) assigns each website a country from its top-level domain,
//! acknowledging the method's imprecision for generic TLDs (the Guardian
//! publishes under `.com`). Events, by contrast, carry an `ActionGeo`
//! FIPS 10-4 country code. This module provides both mappings over a
//! fixed registry of countries, including every country named in the
//! paper's Tables V–VII and enough others to populate the 50-country
//! matrices of Figures 7–8.

use crate::ids::CountryId;
use std::collections::HashMap;

/// A registered country.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Country {
    /// English display name, as used in the paper's tables.
    pub name: &'static str,
    /// Country-code TLD without the dot (`"uk"`), used for source
    /// assignment.
    pub tld: &'static str,
    /// FIPS 10-4 code as used in GDELT `ActionGeo_CountryCode`.
    pub fips: &'static str,
    /// ISO-3166 alpha-3 code as used in CAMEO actor country codes
    /// (`Actor1CountryCode`/`Actor2CountryCode`).
    pub cameo: &'static str,
}

/// The static country table. Order defines [`CountryId`] values and is
/// stable across runs (binary-format compatibility depends on it).
///
/// The first ten entries are the paper's Top-10 publishing countries in
/// the order of Table V.
const COUNTRIES: &[Country] = &[
    Country { name: "UK", tld: "uk", fips: "UK", cameo: "GBR" },
    Country { name: "USA", tld: "us", fips: "US", cameo: "USA" },
    Country { name: "Australia", tld: "au", fips: "AS", cameo: "AUS" },
    Country { name: "India", tld: "in", fips: "IN", cameo: "IND" },
    Country { name: "Italy", tld: "it", fips: "IT", cameo: "ITA" },
    Country { name: "Canada", tld: "ca", fips: "CA", cameo: "CAN" },
    Country { name: "South Africa", tld: "za", fips: "SF", cameo: "ZAF" },
    Country { name: "Nigeria", tld: "ng", fips: "NI", cameo: "NGA" },
    Country { name: "Bangladesh", tld: "bd", fips: "BG", cameo: "BGD" },
    Country { name: "Philippines", tld: "ph", fips: "RP", cameo: "PHL" },
    // Additional reported-on countries of Tables VI-VII.
    Country { name: "China", tld: "cn", fips: "CH", cameo: "CHN" },
    Country { name: "Russia", tld: "ru", fips: "RS", cameo: "RUS" },
    Country { name: "Israel", tld: "il", fips: "IS", cameo: "ISR" },
    Country { name: "Pakistan", tld: "pk", fips: "PK", cameo: "PAK" },
    // Filler for the 50-country matrices.
    Country { name: "Ireland", tld: "ie", fips: "EI", cameo: "IRL" },
    Country { name: "New Zealand", tld: "nz", fips: "NZ", cameo: "NZL" },
    Country { name: "Germany", tld: "de", fips: "GM", cameo: "DEU" },
    Country { name: "France", tld: "fr", fips: "FR", cameo: "FRA" },
    Country { name: "Spain", tld: "es", fips: "SP", cameo: "ESP" },
    Country { name: "Portugal", tld: "pt", fips: "PO", cameo: "PRT" },
    Country { name: "Netherlands", tld: "nl", fips: "NL", cameo: "NLD" },
    Country { name: "Belgium", tld: "be", fips: "BE", cameo: "BEL" },
    Country { name: "Switzerland", tld: "ch", fips: "SZ", cameo: "CHE" },
    Country { name: "Austria", tld: "at", fips: "AU", cameo: "AUT" },
    Country { name: "Sweden", tld: "se", fips: "SW", cameo: "SWE" },
    Country { name: "Norway", tld: "no", fips: "NO", cameo: "NOR" },
    Country { name: "Denmark", tld: "dk", fips: "DA", cameo: "DNK" },
    Country { name: "Finland", tld: "fi", fips: "FI", cameo: "FIN" },
    Country { name: "Poland", tld: "pl", fips: "PL", cameo: "POL" },
    Country { name: "Czechia", tld: "cz", fips: "EZ", cameo: "CZE" },
    Country { name: "Hungary", tld: "hu", fips: "HU", cameo: "HUN" },
    Country { name: "Romania", tld: "ro", fips: "RO", cameo: "ROU" },
    Country { name: "Greece", tld: "gr", fips: "GR", cameo: "GRC" },
    Country { name: "Turkey", tld: "tr", fips: "TU", cameo: "TUR" },
    Country { name: "Ukraine", tld: "ua", fips: "UP", cameo: "UKR" },
    Country { name: "Japan", tld: "jp", fips: "JA", cameo: "JPN" },
    Country { name: "South Korea", tld: "kr", fips: "KS", cameo: "KOR" },
    Country { name: "Hong Kong", tld: "hk", fips: "HK", cameo: "HKG" },
    Country { name: "Taiwan", tld: "tw", fips: "TW", cameo: "TWN" },
    Country { name: "Singapore", tld: "sg", fips: "SN", cameo: "SGP" },
    Country { name: "Malaysia", tld: "my", fips: "MY", cameo: "MYS" },
    Country { name: "Indonesia", tld: "id", fips: "ID", cameo: "IDN" },
    Country { name: "Thailand", tld: "th", fips: "TH", cameo: "THA" },
    Country { name: "Vietnam", tld: "vn", fips: "VM", cameo: "VNM" },
    Country { name: "Sri Lanka", tld: "lk", fips: "CE", cameo: "LKA" },
    Country { name: "Nepal", tld: "np", fips: "NP", cameo: "NPL" },
    Country { name: "Brazil", tld: "br", fips: "BR", cameo: "BRA" },
    Country { name: "Mexico", tld: "mx", fips: "MX", cameo: "MEX" },
    Country { name: "Argentina", tld: "ar", fips: "AR", cameo: "ARG" },
    Country { name: "Chile", tld: "cl", fips: "CI", cameo: "CHL" },
    Country { name: "Colombia", tld: "co", fips: "CO", cameo: "COL" },
    Country { name: "Peru", tld: "pe", fips: "PE", cameo: "PER" },
    Country { name: "Venezuela", tld: "ve", fips: "VE", cameo: "VEN" },
    Country { name: "Egypt", tld: "eg", fips: "EG", cameo: "EGY" },
    Country { name: "Saudi Arabia", tld: "sa", fips: "SA", cameo: "SAU" },
    Country { name: "UAE", tld: "ae", fips: "AE", cameo: "ARE" },
    Country { name: "Iran", tld: "ir", fips: "IR", cameo: "IRN" },
    Country { name: "Iraq", tld: "iq", fips: "IZ", cameo: "IRQ" },
    Country { name: "Kenya", tld: "ke", fips: "KE", cameo: "KEN" },
    Country { name: "Ghana", tld: "gh", fips: "GH", cameo: "GHA" },
    Country { name: "Zimbabwe", tld: "zw", fips: "ZI", cameo: "ZWE" },
    Country { name: "Afghanistan", tld: "af", fips: "AF", cameo: "AFG" },
    Country { name: "Syria", tld: "sy", fips: "SY", cameo: "SYR" },
    Country { name: "North Korea", tld: "kp", fips: "KN", cameo: "PRK" },
];

/// Generic TLDs that the paper's heuristic effectively attributes to the
/// USA (the bulk of `.com`/`.org`/`.net` news sites are US outlets; the
/// paper notes the Guardian as a known misattribution).
const GENERIC_US_TLDS: &[&str] = &["com", "org", "net", "info", "news", "tv"];

/// Slot of an all-capitals code in a direct-mapped table with one slot
/// per `N`-letter code; `None` for anything else.
const fn code_slot<const N: usize>(code: &[u8]) -> Option<usize> {
    if code.len() != N {
        return None;
    }
    let mut slot = 0usize;
    let mut i = 0;
    while i < N {
        if !code[i].is_ascii_uppercase() {
            return None;
        }
        slot = slot * 26 + (code[i] - b'A') as usize;
        i += 1;
    }
    Some(slot)
}

/// The [`COUNTRIES`] index of every two-letter FIPS code and every
/// three-letter CAMEO code, `CountryId::UNKNOWN` elsewhere. An events
/// line resolves three of these codes, so the lookup is an index
/// computed from the letters instead of a hashed probe; built at compile
/// time from the one table above.
static BY_FIPS: [CountryId; 26 * 26] = code_table::<2, { 26 * 26 }>(false);
static BY_CAMEO: [CountryId; 26 * 26 * 26] = code_table::<3, { 26 * 26 * 26 }>(true);

const fn code_table<const N: usize, const SLOTS: usize>(cameo: bool) -> [CountryId; SLOTS] {
    let mut table = [CountryId::UNKNOWN; SLOTS];
    let mut i = 0;
    while i < COUNTRIES.len() {
        let code = if cameo { COUNTRIES[i].cameo } else { COUNTRIES[i].fips };
        match code_slot::<N>(code.as_bytes()) {
            Some(slot) => table[slot] = CountryId(i as u16),
            None => panic!("country code is not N capital letters"),
        }
        i += 1;
    }
    table
}

/// Resolver from TLDs / FIPS codes / names to [`CountryId`]s.
///
/// Cheap to construct; typically built once and shared.
#[derive(Debug, Clone)]
pub struct CountryRegistry {
    by_tld: HashMap<&'static str, CountryId>,
    by_name: HashMap<&'static str, CountryId>,
}

impl Default for CountryRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl CountryRegistry {
    /// Number of registered countries: what [`CountryRegistry::len`]
    /// returns, without building a registry.
    pub const LEN: usize = COUNTRIES.len();

    /// Build the registry from the static table.
    pub fn new() -> Self {
        let mut by_tld = HashMap::with_capacity(COUNTRIES.len() + GENERIC_US_TLDS.len());
        let mut by_name = HashMap::with_capacity(COUNTRIES.len());
        for (i, c) in COUNTRIES.iter().enumerate() {
            let id = CountryId(i as u16);
            by_tld.insert(c.tld, id);
            by_name.insert(c.name, id);
        }
        let usa = by_name["USA"];
        for tld in GENERIC_US_TLDS {
            by_tld.insert(tld, usa);
        }
        CountryRegistry { by_tld, by_name }
    }

    /// Number of registered countries.
    #[inline]
    pub fn len(&self) -> usize {
        Self::LEN
    }

    /// True if no countries are registered (never, in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        COUNTRIES.is_empty()
    }

    /// Country metadata by id. Returns `None` for the unknown sentinel or
    /// out-of-range ids.
    #[inline]
    pub fn get(&self, id: CountryId) -> Option<&'static Country> {
        COUNTRIES.get(usize::from(id.0))
    }

    /// Resolve a TLD (`"uk"`, `"com"`, …, lower-case, no dot).
    #[inline]
    pub fn by_tld(&self, tld: &str) -> CountryId {
        self.by_tld.get(tld).copied().unwrap_or(CountryId::UNKNOWN)
    }

    /// Resolve a GDELT FIPS 10-4 `ActionGeo_CountryCode`.
    #[inline]
    pub fn by_fips(&self, fips: &str) -> CountryId {
        let slot = code_slot::<2>(fips.as_bytes());
        slot.and_then(|s| BY_FIPS.get(s)).copied().unwrap_or(CountryId::UNKNOWN)
    }

    /// Resolve a display name as used in the paper's tables.
    #[inline]
    pub fn by_name(&self, name: &str) -> CountryId {
        self.by_name.get(name).copied().unwrap_or(CountryId::UNKNOWN)
    }

    /// Resolve a CAMEO actor country code (ISO-3166 alpha-3, e.g.
    /// `"GBR"`). Empty/unknown codes map to the sentinel.
    #[inline]
    pub fn by_cameo(&self, code: &str) -> CountryId {
        let slot = code_slot::<3>(code.as_bytes());
        slot.and_then(|s| BY_CAMEO.get(s)).copied().unwrap_or(CountryId::UNKNOWN)
    }

    /// Assign a country to a news-source domain name using the paper's
    /// TLD heuristic: take everything after the final dot.
    pub fn assign_source_country(&self, domain: &str) -> CountryId {
        match domain.rsplit_once('.') {
            Some((_, tld)) if !tld.is_empty() => {
                // ASCII-lowercase without allocating for the common case.
                if tld.bytes().all(|b| b.is_ascii_lowercase()) {
                    self.by_tld(tld)
                } else {
                    self.by_tld(&tld.to_ascii_lowercase())
                }
            }
            _ => CountryId::UNKNOWN,
        }
    }

    /// The paper's Top-10 publishing countries (Table V order).
    pub fn paper_top10_publishing(&self) -> [CountryId; 10] {
        [
            self.by_name("UK"),
            self.by_name("USA"),
            self.by_name("Australia"),
            self.by_name("India"),
            self.by_name("Italy"),
            self.by_name("Canada"),
            self.by_name("South Africa"),
            self.by_name("Nigeria"),
            self.by_name("Bangladesh"),
            self.by_name("Philippines"),
        ]
    }

    /// The paper's Top-10 reported-on countries (Table VI row order).
    pub fn paper_top10_reported(&self) -> [CountryId; 10] {
        [
            self.by_name("USA"),
            self.by_name("UK"),
            self.by_name("India"),
            self.by_name("China"),
            self.by_name("Australia"),
            self.by_name("Canada"),
            self.by_name("Nigeria"),
            self.by_name("Russia"),
            self.by_name("Israel"),
            self.by_name("Pakistan"),
        ]
    }

    /// Iterate all registered countries with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (CountryId, &'static Country)> {
        COUNTRIES.iter().enumerate().map(|(i, c)| (CountryId(i as u16), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_enough_for_50_country_figures() {
        let r = CountryRegistry::new();
        assert!(r.len() >= 50, "need at least 50 countries, have {}", r.len());
        assert!(!r.is_empty());
    }

    #[test]
    fn tlds_fips_and_cameo_are_unique() {
        let mut tlds = std::collections::HashSet::new();
        let mut fips = std::collections::HashSet::new();
        let mut cameo = std::collections::HashSet::new();
        for c in COUNTRIES {
            assert!(tlds.insert(c.tld), "duplicate TLD {}", c.tld);
            assert!(fips.insert(c.fips), "duplicate FIPS {}", c.fips);
            assert!(cameo.insert(c.cameo), "duplicate CAMEO {}", c.cameo);
            assert_eq!(c.cameo.len(), 3, "CAMEO code {} not 3 letters", c.cameo);
        }
    }

    #[test]
    fn cameo_lookup() {
        let r = CountryRegistry::new();
        assert_eq!(r.get(r.by_cameo("GBR")).unwrap().name, "UK");
        assert_eq!(r.get(r.by_cameo("USA")).unwrap().name, "USA");
        assert_eq!(r.get(r.by_cameo("CHN")).unwrap().name, "China");
        assert!(r.by_cameo("").is_unknown());
        assert!(r.by_cameo("XYZ").is_unknown());
    }

    #[test]
    fn code_tables_agree_with_the_country_list() {
        let r = CountryRegistry::new();
        let scan = |code: &str, of: fn(&Country) -> &'static str| {
            COUNTRIES
                .iter()
                .position(|c| of(c) == code)
                .map_or(CountryId::UNKNOWN, |i| CountryId(i as u16))
        };
        let letters = || (b'A'..=b'Z').map(char::from);
        for a in letters() {
            for b in letters() {
                let fips = format!("{a}{b}");
                assert_eq!(r.by_fips(&fips), scan(&fips, |c| c.fips), "{fips}");
                for c in letters() {
                    let cameo = format!("{a}{b}{c}");
                    assert_eq!(r.by_cameo(&cameo), scan(&cameo, |c| c.cameo), "{cameo}");
                }
            }
        }
        for odd in ["", "U", "us", "Us", "USA ", "US\0", "GBRX", "gbr", "G1R", "ÜS", "@@", "[["] {
            assert!(r.by_fips(odd).is_unknown(), "{odd:?}");
            assert!(r.by_cameo(odd).is_unknown(), "{odd:?}");
        }
        assert!(r.by_fips("GBR").is_unknown());
        assert!(r.by_cameo("UK").is_unknown());
    }

    #[test]
    fn paper_countries_resolve() {
        let r = CountryRegistry::new();
        for id in r.paper_top10_publishing() {
            assert!(!id.is_unknown());
        }
        for id in r.paper_top10_reported() {
            assert!(!id.is_unknown());
        }
    }

    #[test]
    fn tld_lookup() {
        let r = CountryRegistry::new();
        assert_eq!(r.get(r.by_tld("uk")).unwrap().name, "UK");
        assert_eq!(r.get(r.by_tld("za")).unwrap().name, "South Africa");
        // Generic TLDs attribute to USA per the paper's heuristic.
        assert_eq!(r.get(r.by_tld("com")).unwrap().name, "USA");
        assert_eq!(r.get(r.by_tld("org")).unwrap().name, "USA");
        assert!(r.by_tld("zz").is_unknown());
    }

    #[test]
    fn fips_lookup_disambiguates_ch() {
        // FIPS "CH" is China; ccTLD "ch" is Switzerland. Known trap.
        let r = CountryRegistry::new();
        assert_eq!(r.get(r.by_fips("CH")).unwrap().name, "China");
        assert_eq!(r.get(r.by_tld("ch")).unwrap().name, "Switzerland");
        assert_eq!(r.get(r.by_fips("SF")).unwrap().name, "South Africa");
        assert!(r.by_fips("XX").is_unknown());
    }

    #[test]
    fn source_domain_assignment() {
        let r = CountryRegistry::new();
        assert_eq!(r.get(r.assign_source_country("www.bbc.co.uk")).unwrap().name, "UK");
        // The paper's own example of a misattribution: theguardian.com → USA.
        assert_eq!(r.get(r.assign_source_country("www.theguardian.com")).unwrap().name, "USA");
        assert_eq!(r.get(r.assign_source_country("news.com.AU")).unwrap().name, "Australia");
        assert!(r.assign_source_country("localhost").is_unknown());
        assert!(r.assign_source_country("weird.").is_unknown());
        assert!(r.assign_source_country("").is_unknown());
    }

    #[test]
    fn get_out_of_range_is_none() {
        let r = CountryRegistry::new();
        assert!(r.get(CountryId::UNKNOWN).is_none());
        assert!(r.get(CountryId(60_000)).is_none());
        assert!(r.get(CountryId(0)).is_some());
    }

    #[test]
    fn iter_matches_len() {
        let r = CountryRegistry::new();
        assert_eq!(r.iter().count(), r.len());
        let (id0, c0) = r.iter().next().unwrap();
        assert_eq!(id0, CountryId(0));
        assert_eq!(c0.name, "UK");
    }
}
