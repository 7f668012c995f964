//! The PI2 benchmark: one process per run, one workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sdss-stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the headline end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The lines
//! before it are a human-readable report with every named metric, its
//! unit and its sample count. A failed correctness check makes the exit
//! code 1. See `perfbench/README.md` for the workloads and the layer map.

mod core_path;
mod gen_layers;
mod logs;
mod report;
mod stats;
mod trace;
mod wl_fleet;
mod wl_generate;
mod wl_scan;
mod wl_stream;

use report::{format_metric, headline_metrics, layer_metrics, result_json, Ctx, Outcome};

pub const WORKLOADS: &[&str] = &["sdss-stream", "sdss-scan-1m", "fleet-mix", "generate-cold"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} ({})", WORKLOADS.join("|")));
    }
    if seconds.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: std::path::PathBuf::from(".bench_out"),
    };
    let mut outcome = match args.workload.as_str() {
        "sdss-stream" => wl_stream::run(&ctx),
        "sdss-scan-1m" => wl_scan::run(&ctx),
        "fleet-mix" => wl_fleet::run(&ctx),
        _ => wl_generate::run(&ctx),
    };
    let peak = stats::peak_rss_mb().unwrap_or(0.0);
    print_report(&args, &mut outcome, peak)
}

fn print_report(args: &Args, outcome: &mut Outcome, peak_rss_mb: f64) -> ! {
    let headline = headline_metrics(outcome, peak_rss_mb);
    println!(
        "== {} seed={} seconds={} trace={} ==",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("-- headline (gated in BENCHMARK.json) --");
    for m in &headline {
        println!("{}", format_metric(m));
    }
    println!("-- end-to-end --");
    for m in &outcome.e2e {
        println!("{}", format_metric(m));
    }
    let failed_ratio =
        if outcome.attempted > 0 { outcome.failed as f64 / outcome.attempted as f64 } else { 0.0 };
    println!(
        "{}",
        format_metric(&report::Metric::new(
            "failed_ratio",
            failed_ratio,
            "ratio",
            Some(outcome.attempted as usize)
        ))
    );
    let layers = layer_metrics(outcome);
    if args.trace {
        println!("-- per-layer (traced run) --");
        for m in &layers {
            println!("{}", format_metric(m));
        }
    }
    let h = &outcome.headline;
    let ms = h.ops.ms();
    if !ms.tail_supported(h.tail_q, stats::MIN_TAIL_SAMPLES) {
        println!(
            "note: op_tail_ms (p{}) has only {} samples beyond it",
            h.tail_q * 100.0,
            ms.beyond(h.tail_q)
        );
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for failure in &outcome.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    let correct = outcome.correct();
    let metrics = if args.trace { layers } else { headline };
    let attempted = outcome.attempted.max(1);
    println!("{}", result_json(correct, attempted, outcome.failed, &metrics));
    std::process::exit(if correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload fleet-mix --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("fleet-mix", 7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload fleet-mix --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc = serde_json::from_str(text).expect("BENCHMARK.json parses");
        doc[list]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (m["name"].as_str().unwrap().to_string(), m["unit"].as_str().unwrap().to_string())
            })
            .collect()
    }

    fn emitted(metrics: &[report::Metric]) -> Vec<(String, String)> {
        metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
    }

    /// A short traced pass of every workload: all checks pass, and every
    /// metric `BENCHMARK.json` declares is emitted, in order, with its
    /// unit, plus the workload's named end-to-end metrics with counts.
    #[test]
    fn smoke_every_workload_emits_every_metric() {
        let issue_names: &[(&str, &[&str])] = &[
            (
                "sdss-stream",
                &["gesture_p50_ms", "gesture_p99_ms", "gestures_per_s", "patch_bytes_p50"],
            ),
            (
                "sdss-scan-1m",
                &["gesture_p50_ms", "gesture_p99_ms", "gestures_per_s", "patch_bytes_p50"],
            ),
            (
                "fleet-mix",
                &[
                    "gesture_p50_ms",
                    "gesture_p99_ms",
                    "generate_p50_ms",
                    "open_p50_ms",
                    "recover_s",
                ],
            ),
            ("generate-cold", &["generate_p50_ms", "generate_p90_ms", "interface_cost"]),
        ];
        for (workload, names) in issue_names {
            let ctx = Ctx {
                seed: 3,
                seconds: 0.2,
                trace: true,
                out_dir: std::path::PathBuf::from(".bench_out/smoke"),
            };
            let mut o = match *workload {
                "sdss-stream" => wl_stream::run(&ctx),
                "sdss-scan-1m" => wl_scan::run(&ctx),
                "fleet-mix" => wl_fleet::run(&ctx),
                _ => wl_generate::run(&ctx),
            };
            assert!(o.correct(), "{workload}: {:?}", o.check_failures);
            assert_eq!(o.failed, 0, "{workload}: {:?}", o.notes);
            assert_eq!(
                emitted(&headline_metrics(&mut o, 1.0)),
                declared("end_to_end"),
                "{workload}"
            );
            assert_eq!(emitted(&layer_metrics(&o)), declared("per_layer"), "{workload}");
            for name in *names {
                let m = o.e2e.iter().find(|m| m.name == *name);
                let m = m.unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert!(m.n.unwrap_or(1) > 0 && m.value > 0.0, "{workload}: {m:?}");
            }
        }
    }
}
