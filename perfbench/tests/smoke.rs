//! A small-size run of every workload, untraced and traced, with all of
//! the output checks, plus the agreement of `BENCHMARK.json` with the
//! metrics the binary prints.

use perfbench::gen::{ClientGen, OfferGen, Window, Workload};
use perfbench::{run, Config, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn every_workload_passes_its_output_checks_at_small_size() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 7,
                seconds: 0.5,
                trace,
                overload_rate: 20_000.0,
                out_dir: out_dir(&format!("smoke-{}-{trace}", workload.name())),
            };
            let outcome =
                run(&cfg).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            assert!(outcome.attempted > 0, "{} issued nothing", workload.name());
            assert_eq!(outcome.failed, 0, "{} trace={trace} failed operations", workload.name());
            for (name, m) in &outcome.metrics.0 {
                assert!(m.value.is_finite(), "{name} is not finite");
            }
            let rate = outcome.metrics.get(if trace {
                "manager.blocking_commit_per_s"
            } else {
                "commit_per_s"
            });
            assert!(
                rate.unwrap_or(0.0) > 0.0,
                "{} trace={trace} committed nothing",
                workload.name()
            );
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for workload in [Workload::Local, Workload::Cross, Workload::Durable] {
        let mut a = ClientGen::new(workload, 11, 1);
        let mut b = ClientGen::new(workload, 11, 1);
        let mut c = ClientGen::new(workload, 12, 1);
        let (mut wa, mut wb, mut wc) = (Window::default(), Window::default(), Window::default());
        let mut differs = false;
        for _ in 0..8 {
            a.next_window(&mut wa);
            b.next_window(&mut wb);
            c.next_window(&mut wc);
            assert_eq!(wa.actions, wb.actions);
            assert_eq!(wa.kinds, wb.kinds);
            differs |= wa.actions != wc.actions || wa.kinds != wc.kinds;
        }
        assert!(differs, "{} ignores its seed", workload.name());
    }
    let (mut a, mut b) = (OfferGen::new(3), OfferGen::new(3));
    for _ in 0..100 {
        assert_eq!(a.next_offer(), b.next_offer());
    }
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let declared = json.matches("\"better\"").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len(), "metric count differs");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    // `cross` and `durable` run inside the traced run of `local`.
    for workload in Workload::ALL {
        let entry = format!("\"name\": \"{}\", \"why\"", workload.name());
        let driven = matches!(workload, Workload::Local | Workload::Overload);
        assert_eq!(json.contains(&entry), driven, "{entry}");
    }
}
