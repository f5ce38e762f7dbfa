//! The repository benchmark: end-to-end and per-layer metrics of the
//! sweep drivers and the shot-service daemon on four named workloads.
//!
//! ```text
//! qpdo-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//! qpdo-perfbench daemon --wal-dir DIR --seed N      (the serve_mixed child)
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer split.

mod clifford;
mod reference;
mod report;
mod sc17;
mod serve;
mod surface;
mod timing;

use std::path::PathBuf;
use std::process::exit;

use report::mix;

const USAGE: &str =
    "usage: qpdo-perfbench --workload surface_d13|surface_d3|sc17_frame|serve_mixed \
--seed N --seconds S --trace 0|1 [--scratch DIR]";

fn fail(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let value = value.unwrap_or_else(|| fail(&format!("{flag} needs a value")));
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: cannot parse {value:?}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut workload: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut seconds: Option<f64> = None;
    let mut trace: Option<bool> = None;
    let mut scratch = PathBuf::from(".bench_build/perfbench-scratch");
    let mut wal_dir: Option<PathBuf> = None;
    let mut daemon = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "daemon" => daemon = true,
            "--workload" => workload = Some(parse("--workload", args.next())),
            "--seed" => seed = Some(parse("--seed", args.next())),
            "--seconds" => seconds = Some(parse("--seconds", args.next())),
            "--trace" => trace = Some(parse::<u8>("--trace", args.next()) != 0),
            "--scratch" => scratch = parse("--scratch", args.next()),
            "--wal-dir" => wal_dir = Some(parse("--wal-dir", args.next())),
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    let seed = seed.unwrap_or_else(|| fail("--seed is required"));
    if daemon {
        let wal_dir = wal_dir.unwrap_or_else(|| fail("daemon needs --wal-dir"));
        if let Err(e) = serve::daemon_main(&wal_dir, seed) {
            eprintln!("daemon: {e}");
            exit(1);
        }
        return;
    }
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    let seconds = seconds.unwrap_or_else(|| fail("--seconds is required"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        fail("--seconds must be in (0, 600]");
    }
    let trace = trace.unwrap_or_else(|| fail("--trace is required"));
    // Each workload draws its inputs from its own stream of the seed.
    let report = match workload.as_str() {
        "surface_d13" => surface::run(&surface::D13, mix(seed, 13), seconds, trace),
        "surface_d3" => surface::run(&surface::D3, mix(seed, 3), seconds, trace),
        "sc17_frame" => sc17::run(mix(seed, 17), seconds, trace),
        "serve_mixed" => {
            if let Err(e) = std::fs::create_dir_all(&scratch) {
                eprintln!("error: cannot create {}: {e}", scratch.display());
                exit(1);
            }
            serve::run(mix(seed, 5), seconds, trace, &scratch).unwrap_or_else(|e| {
                eprintln!("error: serve_mixed: {e}");
                exit(1);
            })
        }
        other => fail(&format!("unknown workload {other:?}")),
    };
    report.print(trace);
}
