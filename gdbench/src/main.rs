fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `BENCHMARK.json` is generated from the tables in `spec.rs`.
    if args == ["--print-benchmark-json"] {
        print!("{}", gdbench::spec::benchmark_json());
        return;
    }
    match gdbench::run(&args) {
        Ok(code) => std::process::exit(code),
        Err(why) => {
            eprintln!("gdbench: {why}");
            std::process::exit(2);
        }
    }
}
