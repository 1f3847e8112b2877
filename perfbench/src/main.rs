//! Command line of the workload benchmark.
//!
//! ```text
//! ivmf-perfbench --workload <dense_roster|ooc_csr|churn_restart>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! The line before it is the full report (run conditions, sample counts,
//! ledger); it is also written to `.bench_out/`, next to the Chrome trace
//! of a traced run. The exit code is 1 when any output check failed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ivmf_perfbench::harness::{RunConfig, Scale};
use ivmf_perfbench::json::Json;
use ivmf_perfbench::{machine, probe, report, workloads};

struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                let w = workloads::find(&value)
                    .ok_or_else(|| format!("unknown workload {value:?}; one of {names:?}"))?;
                workload = Some(w);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace is 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn write_file(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    // Before any thread exists: the environment is edited here only.
    let inherited = machine::pin_environment();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let out_dir = root.join(".bench_out");
    let work_dir =
        root.join(".bench_work")
            .join(format!("{}-{}", args.workload.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir).and(std::fs::create_dir_all(&out_dir)) {
        eprintln!("error: cannot create the work directories: {e}");
        return ExitCode::from(1);
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::full(),
        work_dir: work_dir.clone(),
    };
    let outcome = (args.workload.run)(&cfg);
    std::fs::remove_dir_all(&work_dir).ok();
    // Succeeds only once no other run is using it.
    std::fs::remove_dir(root.join(".bench_work")).ok();
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "error: {} failed before completing a run: {e}",
                args.workload.name
            );
            return ExitCode::from(1);
        }
    };
    let peak_rss = machine::peak_rss_mib().unwrap_or(f64::NAN);

    let llc = machine::llc_bytes();
    let mut rep = Json::obj()
        .with("workload", args.workload.name)
        .with("why", args.workload.why)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("commit", machine::commit(&root))
        .with(
            "source_digest",
            format!("{:016x}", machine::source_digest(&root)),
        )
        .with(
            "machine",
            Json::obj()
                .with("nproc", machine::nproc())
                .with("cpu_model", machine::cpu_model())
                .with("llc_bytes", llc),
        )
        .with("environment", machine::environment_record(&inherited))
        .with(
            "loop",
            "closed loop, one client: the next op starts after the previous one returned and \
             was checked",
        )
        .with("samples", report::samples(&outcome))
        .with("workload_notes", outcome.notes.clone())
        .with("failures", outcome.failures.clone());

    let mut correct = outcome.failed == 0 && !outcome.op_ms.is_empty();
    let metrics = match &outcome.traced {
        None => report::end_to_end(&outcome, peak_rss),
        Some(t) => {
            // Ceilings are probed after the loop so their footprint never
            // shares the cache with the measured ops.
            let triad_bytes = cfg.scale.triad_bytes.unwrap_or(4 * llc.unwrap_or(32 << 20));
            let fma = probe::fma_ceiling(cfg.scale.fma_iters, 5);
            let triad = probe::triad_ceiling(triad_bytes, 5);
            let coverage = t.ledger.coverage();
            if !(0.95..=1.05).contains(&coverage) {
                correct = false;
                eprintln!("ledger check failed: layers sum to {coverage:.4} of the traced wall");
            }
            rep.set("ledger", report::ledger_json(t, &fma, &triad));
            let trace_path = out_dir.join(format!(
                "trace-{}-seed{}.json",
                args.workload.name, args.seed
            ));
            write_file(&trace_path, &t.ledger.chrome_trace());
            rep.set("chrome_trace", trace_path.display().to_string());
            report::per_layer(t, &fma, &triad)
        }
    };
    let mut named = Json::obj();
    for m in &metrics {
        named.set(
            m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        );
    }
    rep.set("metrics", named);
    let rep = rep.to_string();
    write_file(
        &out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload.name,
            args.seed,
            u8::from(args.trace)
        )),
        &rep,
    );
    println!("{rep}");
    println!("{}", report::result_line(correct, &outcome, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
