//! End-to-end and per-layer benchmark of the Bristle Blocks compiler and
//! its differential verifier.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <masks|fuzz|soak|shrink|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up several times (reporting the median as
//! `setup_s`), then issues ops back to back for `--seconds`, checks every
//! output outside the timed region, and prints one JSON object as the
//! last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! times every op twice, untraced and traced, so the tracing overhead is
//! measured, and prints the share-of-total self-time table on standard
//! error. `--workload all` runs each workload in its own process and
//! prints one row per workload.
//!
//! Ops and set-up are timed in CPU time of the one thread that runs them
//! (the geometry workers are capped at one), so time the host gives to
//! other tenants does not count, and scaled to one host speed by a
//! yardstick run beside them (`src/yardstick.rs`), so neither does the
//! slowdown other tenants cause in the shared core and caches. Raw CPU
//! and wall times go to standard error.

mod replay;
mod trace;
mod workloads;
mod yardstick;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use trace::{Tracer, LAYERS};
use workloads::{Counts, Fuzz, Masks, Shrink, Soak, Workload};
use yardstick::Speed;

const WORKLOADS: [&str; 4] = ["masks", "fuzz", "soak", "shrink"];

/// End-to-end metrics, reported by every workload: (name, unit).
/// `ref` times are CPU times scaled to the yardstick's reference speed.
const END_TO_END: [(&str, &str); 8] = [
    ("op_ref_ms.p50", "ms"),
    ("op_ref_ms.p90", "ms"),
    ("ops_per_ref_s", "1/s"),
    ("work_per_ref_s", "1/s"),
    ("die_area.geomean", "lambda2"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics of the traced run: (name, unit). A layer a workload
/// does not call reads 0. `_ms` and counts are per traced op.
const PER_LAYER: [(&str, &str); 45] = [
    ("core.compile_ms", "ms"),
    ("core.pass1_ms", "ms"),
    ("core.pass2_ms", "ms"),
    ("core.pass3_ms", "ms"),
    ("core.sticks_ms", "ms"),
    ("core.reprs_other_ms", "ms"),
    ("pla.tape_steps", "count"),
    ("pla.terms", "count"),
    ("cell.flatten_cold_ms", "ms"),
    ("cell.flat_shapes", "count"),
    ("cif.cif_ms", "ms"),
    ("cif.svg_ms", "ms"),
    ("cif.bytes", "bytes"),
    ("extract.top_ms", "ms"),
    ("extract.top_nets", "count"),
    ("extract.top_devices", "count"),
    ("extract.core_ms", "ms"),
    ("extract.core_nets", "count"),
    ("extract.core_devices", "count"),
    ("drc.top_ms", "ms"),
    ("drc.checked_pairs", "count"),
    ("drc.violations", "count"),
    ("sim.machine_ms", "ms"),
    ("sim.bridge_ms", "ms"),
    ("sim.settle_ms", "ms"),
    ("sim.settles", "count"),
    ("sim.settle_us.p50", "us"),
    ("sim.step_word_ms", "ms"),
    ("sim.drive_read_ms", "ms"),
    ("verify.encode_ms", "ms"),
    ("verify.checks", "count"),
    ("verify.shrink_runs", "count"),
    ("verify.shrink_ms_per_run", "ms"),
    ("self_pct.core", "%"),
    ("self_pct.cell", "%"),
    ("self_pct.cif", "%"),
    ("self_pct.extract", "%"),
    ("self_pct.drc", "%"),
    ("self_pct.sim", "%"),
    ("self_pct.pla", "%"),
    ("self_pct.verify", "%"),
    ("self_pct.bench", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.ops", "count"),
    ("trace.uncovered_ms", "ms"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Inputs seen only once that are run a second time, untimed, to check
/// that their exact counts repeat.
const RERUNS: usize = 16;
/// Specs compiled a second time to check that die area and decoder
/// counts repeat.
const AREA_RERUNS: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// The outcome of one workload run.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines for standard error: sample counts, failures, trace table.
    notes: Vec<String>,
}

/// What a run learned about one distinct input.
struct Seen {
    /// Exact counts of its first op; every repeat must match them.
    counts: Counts,
    /// CPU ms of each of its ops, with the yardstick sample before it.
    lats: Vec<(f64, usize)>,
    /// Units of work one op on it does.
    work: f64,
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

/// CPU time of the calling thread, in seconds. Time the host does not
/// run this thread (other tenants of a shared machine, steal) does not
/// count.
fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

/// Runs one workload for `seconds` and reports its metrics.
fn run<W: Workload>(
    setup: impl Fn() -> Result<W, String>,
    seconds: f64,
    traced: bool,
) -> Result<Report, String> {
    let mut off = Tracer::new(false);
    let mut speed = Speed::new();
    let setups = if seconds > 0.0 { SETUPS } else { 1 };
    let mut setup_cpu = Vec::new();
    let mut w = None;
    for _ in 0..setups {
        drop(w.take());
        speed.sample();
        let t = cpu_s();
        let x = setup()?;
        // Warm-up op: lazy set-up and caches finish before timing.
        let (_, input) = x.input(0);
        x.op(&input, &mut off)?;
        setup_cpu.push((cpu_s() - t, speed.len() - 1));
        w = Some(x);
    }
    let w = w.expect("at least one set-up");

    let mut tr = Tracer::new(traced);
    // CPU ms of every ok op, and their wall ms for the notes.
    let mut lat_ms: Vec<f64> = Vec::new();
    let mut wall_ms: Vec<f64> = Vec::new();
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut errors: Vec<String> = Vec::new();
    let mut seen: HashMap<usize, Seen> = HashMap::new();
    let mut fail = |e: String| {
        failed += 1;
        if errors.len() < 8 {
            errors.push(e);
        }
    };

    let start = Instant::now();
    let mut i = 0usize;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let (key, input) = w.input(i);
        i += 1;
        attempted += 1;
        let before = speed.before_op();
        let (t, tc) = (Instant::now(), cpu_s());
        let r = w.op(&input, &mut off);
        let ms = (cpu_s() - tc) * 1e3;
        let wms = t.elapsed().as_secs_f64() * 1e3;
        let out = match r {
            Ok(out) => out,
            Err(e) => {
                fail(e);
                continue;
            }
        };
        let counts = w.counts(&out);
        if traced {
            let root = tr.start_op();
            let tc = cpu_s();
            let r = w.op(&input, &mut tr);
            let tms = (cpu_s() - tc) * 1e3;
            match r {
                Ok(traced_out) => {
                    tr.end(root);
                    untraced_ms += ms;
                    traced_ms += tms;
                    if w.counts(&traced_out) != counts {
                        fail(format!(
                            "op {i}: traced op disagrees with untraced: {:?} vs {counts:?}",
                            w.counts(&traced_out)
                        ));
                        continue;
                    }
                }
                Err(e) => {
                    tr.unwind();
                    fail(format!("op {i}: traced op failed: {e}"));
                    continue;
                }
            }
        }
        let first = !seen.contains_key(&key);
        if let Err(e) = w.check(&input, &out, first) {
            fail(e);
            continue;
        }
        let s = seen.entry(key).or_insert_with(|| Seen {
            counts: counts.clone(),
            lats: Vec::new(),
            work: w.work(&out),
        });
        if s.counts != counts {
            fail(format!(
                "op {i}: counts changed on a repeat: {:?} vs {counts:?}",
                s.counts
            ));
            continue;
        }
        s.lats.push((ms, before));
        lat_ms.push(ms);
        wall_ms.push(wms);
    }

    speed.sample();
    let scaled =
        |v: &[(f64, usize)]| -> Vec<f64> { v.iter().map(|&(x, k)| x * speed.scale(k)).collect() };
    let setup_s = scaled(&setup_cpu);

    // Determinism: every count is computed twice. Traced runs compared
    // each op with its traced twin already; otherwise rerun inputs that
    // ran only once.
    if !traced {
        let mut once: Vec<usize> = seen
            .iter()
            .filter(|(_, s)| s.lats.len() == 1)
            .map(|(&k, _)| k)
            .collect();
        once.sort_unstable();
        for i in once.into_iter().take(RERUNS) {
            let (key, input) = w.input(i);
            match w.op(&input, &mut off) {
                Ok(out) if w.counts(&out) == seen[&key].counts => {}
                Ok(out) => fail(format!(
                    "input {key}: counts changed on a rerun: {:?}",
                    w.counts(&out)
                )),
                Err(e) => fail(format!("input {key}: rerun failed: {e}")),
            }
        }
    }

    // Die areas, and their determinism with the decoder counts.
    let specs = w.area_specs();
    let mut log_area = 0.0;
    for (k, spec) in specs.iter().enumerate() {
        let census = |s: &bristle_core::ChipSpec| {
            bristle_core::Compiler::new()
                .compile(s)
                .map(|c| (c.die_area(), c.tape_steps, c.pla.stats().terms))
                .map_err(|e| format!("{}: compile: {e}", s.name))
        };
        match census(spec) {
            Ok(a) => {
                log_area += (a.0 as f64).ln();
                if k < AREA_RERUNS && census(spec) != Ok(a) {
                    fail(format!("{}: die area or decoder counts changed", spec.name));
                }
            }
            Err(e) => fail(e),
        }
    }
    let failed = failed.min(attempted);

    let mut notes = vec![
        format!(
            "ops {attempted} ({} ok, {failed} failed) over {:.1} s; op_ref_ms percentiles over {} distinct inputs (p90 has {} beyond it)",
            lat_ms.len(),
            start.elapsed().as_secs_f64(),
            seen.len(),
            seen.len() - (0.9 * seen.len() as f64).ceil() as usize,
        ),
        format!(
            "op wall ms: median {:.3}, total {:.1} s for {:.1} s of op CPU time",
            median(&wall_ms),
            wall_ms.iter().sum::<f64>() / 1e3,
            lat_ms.iter().sum::<f64>() / 1e3,
        ),
        format!(
            "yardstick: {} samples, median {:.3} CPU ms (reference {} ms)",
            speed.len(),
            speed.median_ms(),
            yardstick::REF_MS,
        ),
    ];
    if seen.len() <= 8 {
        let mut keys: Vec<&usize> = seen.keys().collect();
        keys.sort_unstable();
        for k in keys {
            let lats = &seen[k].lats;
            let cpu: Vec<f64> = lats.iter().map(|l| l.0).collect();
            notes.push(format!(
                "  input {k}: median {:.3} ref ms, {:.3} CPU ms over {} ops",
                median(&scaled(lats)),
                median(&cpu),
                lats.len()
            ));
        }
    }
    notes.extend(errors.iter().map(|e| format!("FAILED: {e}")));

    let metrics = if traced {
        notes.push(tr.table("per-layer self time"));
        let ops = tr.ops().max(1) as f64;
        let key_ms = |k: &str| tr.samples_ms(k).iter().fold(0.0, |a, b| a + b);
        let total = tr.total_ms();
        let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();
        for &(name, unit) in &PER_LAYER {
            let v = match name {
                "sim.settles" => tr.samples_ms("sim.settle_ms").len() as f64 / ops,
                "sim.settle_us.p50" => median(tr.samples_ms("sim.settle_ms")) * 1e3,
                "sim.drive_read_ms" => (key_ms("sim.drive_ms") + key_ms("sim.read_ms")) / ops,
                "verify.shrink_ms_per_run" => {
                    key_ms("verify.shrink_ms") / tr.counter("verify.shrink_runs").max(1.0)
                }
                "trace.overhead_pct" => 100.0 * (traced_ms - untraced_ms) / untraced_ms.max(1e-9),
                "trace.ops" => tr.ops() as f64,
                "trace.uncovered_ms" => tr.self_ms()["bench"] / ops,
                _ if name.starts_with("self_pct.") => {
                    let layer = &name["self_pct.".len()..];
                    debug_assert!(LAYERS.contains(&layer));
                    100.0 * tr.self_ms()[layer] / total.max(1e-9)
                }
                _ if !tr.samples_ms(name).is_empty() => key_ms(name) / ops,
                _ => tr.counter(name) / ops,
            };
            m.push((name, v, unit));
        }
        m
    } else {
        // An input's latency is the median of its ops' ref times; the
        // percentiles are over inputs, so a workload that repeats a few
        // inputs reports their typical latencies. The rates weigh every
        // distinct input once, at that latency, so they do not depend on
        // where in its cycle of inputs a run ends.
        let mut sorted: Vec<f64> = seen.values().map(|s| median(&scaled(&s.lats))).collect();
        sorted.sort_by(f64::total_cmp);
        let mix_s = sorted.iter().sum::<f64>() / 1e3;
        let rate = |x: f64| if mix_s > 0.0 { x / mix_s } else { 0.0 };
        let values = [
            percentile(&sorted, 0.5),
            percentile(&sorted, 0.9),
            rate(seen.len() as f64),
            rate(seen.values().map(|s| s.work).sum()),
            (log_area / specs.len().max(1) as f64).exp(),
            median(&setup_s),
            peak_rss_mb(),
            1.0 - failed as f64 / attempted.max(1) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    Ok(Report {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Runs the named workload at full (or tiny) size.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    tiny: bool,
) -> Result<Report, String> {
    match name {
        "masks" => run(|| Masks::setup(seed, tiny), seconds, traced),
        "fuzz" => run(|| Fuzz::setup(seed, tiny), seconds, traced),
        "soak" => run(|| Soak::setup(seed, tiny), seconds, traced),
        "shrink" => run(|| Shrink::setup(seed, tiny), seconds, traced),
        _ => Err(format!("unknown workload {name}")),
    }
}

/// The result line: one JSON object.
fn json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// `--workload all`: each workload in its own process (so peak RSS is
/// its own), one row per workload.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<(&str, &str)> = if a.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut ok = true;
    println!(
        "{:<8} {:>8} {:>6}  metrics",
        "workload", "attempted", "failed"
    );
    for wl in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", wl, "--seed", &a.seed.to_string()])
            .args([
                "--seconds",
                &a.seconds.to_string(),
                "--trace",
                if a.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let text = match out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                println!("{wl:<8} exited with {}", o.status);
                ok = false;
                continue;
            }
            Err(e) => {
                println!("{wl:<8} did not start: {e}");
                ok = false;
                continue;
            }
        };
        let last = text.lines().last().unwrap_or("");
        let field = |k: &str| {
            last.split(&format!("\"{k}\": "))
                .nth(1)
                .and_then(|s| s.split([',', '}']).next())
                .unwrap_or("?")
                .to_owned()
        };
        let cells: Vec<String> = names
            .iter()
            .map(|(n, u)| {
                let v = last
                    .split(&format!("\"{n}\": {{\"value\": "))
                    .nth(1)
                    .and_then(|s| s.split(',').next())
                    .and_then(|s| s.parse::<f64>().ok())
                    .map_or("?".into(), |v| format!("{v:.4}"));
                format!("{n}={v} {u}")
            })
            .collect();
        ok &= field("correct") == "true";
        println!(
            "{wl:<8} {:>8} {:>6}  {}",
            field("attempted"),
            field("failed"),
            cells.join("  ")
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&a);
    }
    // One geometry worker: every op runs on this thread alone, so its
    // thread CPU time is its whole cost, and on a shared host of a few
    // cores a second worker would measure the scheduler.
    bristle_geom::set_max_workers(1);
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} commit={} available_parallelism={hw} worker_cap={} closed_loop_callers=1",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        commit(),
        bristle_geom::max_workers(),
    );
    match run_workload(&a.workload, a.seed, a.seconds, a.trace, false) {
        Ok(r) => {
            for n in &r.notes {
                eprintln!("{n}");
            }
            for (n, v, u) in &r.metrics {
                eprintln!("  {n:<26} {v:>16.4} {u}");
            }
            println!("{}", json(&r));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", a.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names declared in BENCHMARK.json under `section`, in order.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let body = text
            .split(&format!("\"{section}\""))
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("section present");
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    #[test]
    fn declared_names_match_the_code() {
        let names = |v: &[(&str, &str)]| v.iter().map(|(n, _)| (*n).to_owned()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(&END_TO_END));
        assert_eq!(declared("per_layer"), names(&PER_LAYER));
        assert_eq!(declared("workloads"), WORKLOADS.to_vec());
    }

    /// Smoke test: every workload runs at a tiny size, untraced and
    /// traced, passes its checks and emits every named metric.
    #[test]
    fn every_workload_runs_tiny_and_emits_every_metric() {
        for wl in WORKLOADS {
            for traced in [false, true] {
                let r = run_workload(wl, 3, 0.0, traced, true).unwrap();
                assert_eq!(r.failed, 0, "{wl}: {:?}", r.notes);
                assert!(r.attempted >= 1);
                let want: Vec<&str> = if traced {
                    PER_LAYER.iter().map(|m| m.0).collect()
                } else {
                    END_TO_END.iter().map(|m| m.0).collect()
                };
                let got: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
                assert_eq!(got, want, "{wl} traced={traced}");
                assert!(r.metrics.iter().all(|m| m.1.is_finite()));
                if !traced {
                    assert!(r.metrics.iter().all(|m| m.1 > 0.0), "{wl}: {:?}", r.metrics);
                }
                let line = json(&r);
                assert!(line.starts_with("{\"correct\": true"), "{line}");
            }
        }
    }
}
