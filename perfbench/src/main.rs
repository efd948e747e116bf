//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --overload-rate <offers/s>`
//!
//! Runs one workload once and prints a human-readable report followed by
//! one JSON result line.  Exits non-zero without a result line when an
//! output check fails.

use perfbench::gen::Workload;
use perfbench::stats::{json_num, json_str, provenance};
use perfbench::{run, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <local|cross|durable|overload> --seed <n> --seconds <s> \
         --trace <0|1> --overload-rate <offers/s> [--out-dir <dir>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let at = args.iter().position(|a| a == flag)?;
        args.get(at + 1).cloned()
    };
    let Some(workload) = get("--workload").as_deref().and_then(Workload::parse) else {
        return usage("--workload must name one of local, cross, durable, overload");
    };
    let Some(seed) = get("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed must be a whole number");
    };
    let Some(seconds) = get("--seconds").and_then(|s| s.parse::<f64>().ok()).filter(|s| *s > 0.0)
    else {
        return usage("--seconds must be a positive number");
    };
    let trace = match get("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return usage("--trace must be 0 or 1"),
    };
    let Some(overload_rate) =
        get("--overload-rate").and_then(|s| s.parse::<f64>().ok()).filter(|r| *r > 0.0)
    else {
        return usage("--overload-rate must be a positive number of offers per second");
    };
    let out_dir = PathBuf::from(get("--out-dir").unwrap_or_else(|| ".bench_out".into()));
    let cfg = Config { workload, seed, seconds, trace, overload_rate, out_dir };
    let options = workload.options();
    let prov = provenance(&[
        ("workload", json_str(workload.name())),
        ("seed", seed.to_string()),
        ("seconds", json_num(seconds)),
        ("trace", trace.to_string()),
        ("fsync", json_str(&format!("{:?}", options.fsync))),
        ("variant", json_str(&format!("{:?}", options.variant))),
        ("overload_offered_per_s", json_num(overload_rate)),
    ]);
    println!("provenance {prov}");
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(problem) => {
            eprintln!("perfbench: output check failed: {problem}");
            return ExitCode::FAILURE;
        }
    };
    for (name, m) in outcome.metrics.0.iter().chain(outcome.extra.0.iter()) {
        println!("{name:<40} {:>16.4} {:<6} n={}", m.value, m.unit, m.samples);
    }
    let result = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    let record =
        cfg.out_dir.join(format!("{}-seed{}-trace{}.json", workload.name(), seed, u8::from(trace)));
    let saved = format!("{{\"provenance\": {prov}, \"result\": {result}}}\n");
    if let Err(e) = std::fs::write(&record, saved) {
        eprintln!("perfbench: writing {}: {e}", record.display());
        return ExitCode::FAILURE;
    }
    println!("{result}");
    ExitCode::SUCCESS
}
