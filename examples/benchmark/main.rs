//! Wall-clock + virtual-time benchmark of the Bullet stack: five seeded
//! workloads, end-to-end metrics measured with no spans recorded, and
//! per-layer metrics from a separate traced run.  See README.md beside
//! this file for what each workload and metric is for.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --all [--out runs.jsonl]      every workload, both passes
//! benchmark --selfcheck                   determinism + BENCHMARK.json agreement
//! benchmark --compare A.jsonl B.jsonl     apply the bounds to two run sets
//! ```

mod layers;
mod measure;
mod report;
mod stack;
mod workload;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use measure::{Direct, Driver, Segment, Until, CREATE, DELETE, READ};
use report::{Json, RunResult, END_TO_END};
use workload::{Spec, SPECS};

/// A run sets up this many times, measuring a share of the run after
/// each: `setup_s` is the median of the set-ups, and effects that depend
/// on where one set-up's allocations landed average out within the run.
const SEGMENTS: u64 = 5;

/// Shares of a traced run's time: the untraced segment the counts come
/// from and the depth-cycling traced segment get one each, the traced
/// segment entering at the top (for the tracing overhead) gets
/// `OVERHEAD_SHARE`, and the 18 leaf probes together get the rest.
const TRACE_SHARE: f64 = 0.25;
const OVERHEAD_SHARE: f64 = 0.2;
const LEAF_PROBES: f64 = 18.0;
/// Cycles of the probe tail; each yields one sample per op and depth.
const PROBE_CYCLES: u32 = 4000;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    rounds: Option<u32>,
    trace: bool,
    spans: Option<String>,
    out: Option<String>,
    selfcheck: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: 10.0,
        rounds: None,
        trace: false,
        spans: None,
        out: None,
        selfcheck: false,
        compare: None,
    };
    fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag}: cannot read '{v}'"))
    }
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--all" => a.all = true,
            "--seed" => a.seed = num(&flag, value()?)?,
            "--seconds" => a.seconds = num(&flag, value()?)?,
            "--rounds" => a.rounds = Some(num(&flag, value()?)?),
            "--trace" => a.trace = num::<u8>(&flag, value()?)? != 0,
            "--spans" => a.spans = Some(value()?),
            "--out" => a.out = Some(value()?),
            "--selfcheck" => a.selfcheck = true,
            "--compare" => a.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The seed of segment `k` of a run: distinct inputs per segment, all
/// derived from `--seed`.
fn segment_seed(seed: u64, k: u64) -> u64 {
    (seed ^ k.wrapping_mul(0xa076_1d64_78bd_642f)).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1
}

/// `VmHWM`, the process's peak resident set, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn direct_drivers<'a>(spec: &Spec, seed: u64, ready: &'a stack::Ready) -> Vec<Driver<'a, Direct>> {
    (0..spec.clients)
        .map(|c| Driver::new(Direct(ready.stack.client.clone()), spec, seed, c, ready))
        .collect()
}

/// The `--trace 0` pass: every end-to-end metric.
fn end_to_end(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    rounds: Option<u32>,
) -> Result<RunResult, String> {
    let until = match rounds {
        Some(n) => Until::Rounds(n),
        None => Until::Seconds(seconds / SEGMENTS as f64),
    };
    let segments: Vec<Segment> = (0..SEGMENTS)
        .map(|k| {
            let seed = segment_seed(seed, k);
            let ready = stack::setup(spec, seed);
            let mut drivers = direct_drivers(spec, seed, &ready);
            measure::segment(&ready, &mut drivers, spec, until, true, || ())
        })
        .collect();
    let e = measure::summarise(&segments);
    let values = [
        e.ops_per_s,
        e.read_p50_us,
        e.cd_p50_us,
        e.sim_ms_per_op,
        e.setup_s,
        peak_rss_mb()?,
    ];
    Ok(RunResult {
        workload: spec.name,
        seed,
        trace: false,
        attempted: e.tally.total_attempted(),
        failed: e.tally.total_failed(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(d, v)| (d.name.to_string(), v, d.unit))
            .collect(),
        samples: vec![
            ("clients", spec.clients as u64),
            ("segments", SEGMENTS),
            ("rounds", e.rounds as u64),
            ("ops", e.ops),
            ("wall_ms", (e.wall_s * 1e3) as u64),
            ("sim_ns", e.sim_ns),
            ("read_samples", e.read_samples as u64),
            ("cd_samples", e.cd_samples as u64),
            ("reads", e.tally.attempted[READ]),
            ("creates", e.tally.attempted[CREATE]),
            ("deletes", e.tally.attempted[DELETE]),
            ("reads_failed", e.tally.failed[READ]),
            ("creates_failed", e.tally.failed[CREATE]),
            ("deletes_failed", e.tally.failed[DELETE]),
        ],
    })
}

fn median_rate(segment: &Segment) -> f64 {
    let mut rates: Vec<f64> = segment
        .main
        .iter()
        .map(|r| r.ops as f64 / r.wall_s)
        .collect();
    measure::median(&mut rates)
}

fn main_ops(segment: &Segment) -> u64 {
    segment.main.iter().map(|r| r.ops).sum()
}

fn traced_drivers<'a>(
    spec: &Spec,
    seed: u64,
    ready: &'a stack::Ready,
    base: Instant,
    cycle: bool,
) -> Vec<Driver<'a, layers::Traced>> {
    (0..spec.clients)
        .map(|c| {
            let entry = layers::Traced::new(&ready.stack, base, c, spec.stride, cycle);
            Driver::new(entry, spec, seed, c, ready)
        })
        .collect()
}

/// The `--trace 1` pass: every per-layer metric.  One untraced segment
/// for the counts, one traced segment of the same op stream for the
/// spans, then the leaf probes.
fn per_layer(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    rounds: Option<u32>,
    spans_path: Option<&str>,
) -> Result<RunResult, String> {
    let (until, overhead_until, leaf_budget) = match rounds {
        Some(n) => (Until::Rounds(n), Until::Rounds(n), 0.01),
        None => (
            Until::Seconds(seconds * TRACE_SHARE),
            Until::Seconds(seconds * OVERHEAD_SHARE),
            seconds * (1.0 - 2.0 * TRACE_SHARE - OVERHEAD_SHARE) / LEAF_PROBES,
        ),
    };
    let mut m = layers::Metrics::new();
    let untraced = {
        let ready = stack::setup(spec, seed);
        let mut drivers = direct_drivers(spec, seed, &ready);
        let before = layers::counters(&ready.stack);
        let mut after = None;
        let segment = measure::segment(&ready, &mut drivers, spec, until, true, || {
            after = Some(layers::counters(&ready.stack));
        });
        let after = after.expect("the main phase ended");
        layers::count_metrics(&before, &after, main_ops(&segment), &ready.stack, &mut m);
        segment
    };
    // The tails are reported here, unbounded: whole runs on a shared
    // host shift by 15 % for a minute at a time, and a p99 then moves by
    // more than the largest bound the contract allows.
    let e = measure::summarise(std::slice::from_ref(&untraced));
    m.insert("bench.read_p99_us".into(), e.read_p99_us);
    m.insert("bench.cd_p99_us".into(), e.cd_p99_us);

    // The same stream with a span recorded for one call in `stride`,
    // every call entering at the top: its throughput against the
    // untraced segment's is what recording costs.
    let base = Instant::now();
    let top_traced = {
        let ready = stack::setup(spec, seed);
        let mut drivers = traced_drivers(spec, seed, &ready, base, false);
        measure::segment(&ready, &mut drivers, spec, overhead_until, false, || ())
    };
    m.insert(
        "bench.trace_overhead_share".into(),
        1.0 - median_rate(&top_traced) / e.ops_per_s,
    );

    let ready = stack::setup(spec, seed);
    let mut drivers = traced_drivers(spec, seed, &ready, base, true);
    let traced = measure::segment(&ready, &mut drivers, spec, until, false, || ());
    // One client alone: under contention the difference between two
    // depths is lock-wait noise, and contention has its own metrics.
    drivers[0].entry.probe(&ready.source, PROBE_CYCLES);
    let spans: Vec<layers::Span> = drivers
        .iter()
        .flat_map(|d| d.entry.spans.iter().copied())
        .collect();
    drop(drivers);
    if let Some(path) = spans_path {
        layers::write_spans(path, &spans).map_err(|e| format!("{path}: {e}"))?;
    }
    let (warm_read_ns, upper_ns) = layers::depth_metrics(&spans, &mut m);
    layers::leaf_metrics(spec, &ready, leaf_budget, &mut m);
    m.insert(
        "bench.generator_ns".into(),
        layers::generator_ns(spec, seed, leaf_budget),
    );
    let share = layers::layer_sum_share(&m, warm_read_ns, upper_ns);
    m.insert("bench.layer_sum_share".into(), share);

    let mut tally = untraced.tally;
    tally.add(&top_traced.tally);
    tally.add(&traced.tally);
    Ok(RunResult {
        workload: spec.name,
        seed,
        trace: true,
        attempted: tally.total_attempted(),
        failed: tally.total_failed(),
        metrics: m
            .into_iter()
            .map(|(name, v)| {
                let unit = report::layer_unit(&name);
                (name, v, unit)
            })
            .collect(),
        samples: vec![
            ("clients", spec.clients as u64),
            ("untraced_rounds", untraced.main.len() as u64),
            ("untraced_ops", main_ops(&untraced)),
            ("traced_rounds", traced.main.len() as u64),
            ("traced_ops", main_ops(&traced)),
            ("spans", spans.len() as u64),
            ("probe_cycles", PROBE_CYCLES as u64),
        ],
    })
}

fn emit(result: &RunResult, out: Option<&str>) -> Result<(), String> {
    print!("{}", result.human());
    if let Some(path) = out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(f, "{}", result.out_line()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Runs every 1-client workload twice at a fixed, short length and
/// requires virtual time, op counts and every count metric to repeat
/// exactly; `hot_read_2c` likewise for virtual time (all hits, so its
/// charges sum the same in any interleaving).  If BENCHMARK.json is in
/// the working directory, also requires it to name exactly the workloads
/// and metrics this program runs and prints, with these bounds.
fn selfcheck(seed: u64) -> Result<bool, String> {
    const ROUNDS: u32 = 1;
    let mut ok = true;
    let mut check = |what: String, same: bool| {
        println!("{} {what}", if same { "ok   " } else { "FAIL " });
        ok &= same;
    };
    let sample = |r: &RunResult, k: &str| r.samples.iter().find(|s| s.0 == k).map_or(0, |s| s.1);
    let mut printed: Vec<(String, String)> = Vec::new();
    for spec in &SPECS {
        if spec.clients > 1 && spec.name != "hot_read_2c" {
            continue;
        }
        let a = end_to_end(spec, seed, 1.0, Some(ROUNDS))?;
        let b = end_to_end(spec, seed, 1.0, Some(ROUNDS))?;
        check(
            format!(
                "{}: virtual time repeats ({} ns over {} ops)",
                spec.name,
                sample(&a, "sim_ns"),
                sample(&a, "ops")
            ),
            sample(&a, "sim_ns") == sample(&b, "sim_ns") && sample(&a, "ops") == sample(&b, "ops"),
        );
        check(
            format!("{}: no op failed", spec.name),
            a.correct() && b.correct(),
        );
        if spec.clients > 1 {
            continue;
        }
        let a = per_layer(spec, seed, 1.0, Some(ROUNDS), None)?;
        let b = per_layer(spec, seed, 1.0, Some(ROUNDS), None)?;
        let counts = |r: &RunResult| -> Vec<(String, u64)> {
            r.metrics
                .iter()
                .filter(|m| m.2 != "ns" && !m.0.starts_with("bench."))
                .map(|m| (m.0.clone(), m.1.to_bits()))
                .collect()
        };
        check(
            format!("{}: {} count metrics repeat", spec.name, counts(&a).len()),
            counts(&a) == counts(&b),
        );
        printed = a
            .metrics
            .iter()
            .map(|m| (m.0.clone(), m.2.to_string()))
            .collect();
    }

    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        println!("skip  BENCHMARK.json is not in the working directory");
        return Ok(ok);
    };
    let json = report::parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Vec<Json> {
        match json.get(key) {
            Some(Json::Arr(v)) => v.clone(),
            _ => Vec::new(),
        }
    };
    let field = |v: &Json, k: &str| v.get(k).and_then(Json::str).unwrap_or("").to_string();
    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    check(
        "BENCHMARK.json: workloads are the five this program runs, for the same reasons".into(),
        workloads
            .iter()
            .map(|(n, w)| (n.as_str(), w.as_str()))
            .eq(SPECS.iter().map(|s| (s.name, s.why))),
    );
    let declared: Vec<(String, String, String, u64)> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::num).unwrap_or(-1.0);
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                bound.to_bits(),
            )
        })
        .collect();
    let built_in: Vec<(String, String, String, u64)> = END_TO_END
        .iter()
        .map(|d| {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            (
                d.name.into(),
                d.unit.into(),
                better.into(),
                d.bound.to_bits(),
            )
        })
        .collect();
    check(
        "BENCHMARK.json: end_to_end names, units, directions and bounds are --compare's".into(),
        declared == built_in,
    );
    let mut declared: Vec<(String, String)> = list("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    declared.sort();
    check(
        "BENCHMARK.json: per_layer names and units are the ones --trace 1 prints".into(),
        declared == printed,
    );
    Ok(ok)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if let Some((a, b)) = &args.compare {
        return Ok(exit_code(!report::compare(a, b)?));
    }
    if args.selfcheck {
        return Ok(exit_code(selfcheck(args.seed)?));
    }
    let pass = |spec: &'static Spec, trace: bool| {
        if trace {
            per_layer(
                spec,
                args.seed,
                args.seconds,
                args.rounds,
                args.spans.as_deref(),
            )
        } else {
            end_to_end(spec, args.seed, args.seconds, args.rounds)
        }
    };
    if args.all {
        let mut correct = true;
        for spec in &SPECS {
            for trace in [false, true] {
                let result = pass(spec, trace)?;
                emit(&result, args.out.as_deref())?;
                correct &= result.correct();
            }
        }
        return Ok(exit_code(correct));
    }
    let name = args
        .workload
        .as_deref()
        .ok_or("give --workload <name>, --all, --selfcheck or --compare A B")?;
    let spec = workload::spec(name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!(
            "no workload '{name}'; the workloads are {}",
            names.join(", ")
        )
    })?;
    let result = pass(spec, args.trace)?;
    emit(&result, args.out.as_deref())?;
    // The driver reads the last line of standard output.
    println!("{}", result.contract_line());
    Ok(exit_code(result.correct()))
}

fn main() -> ExitCode {
    run().unwrap_or_else(|msg| {
        eprintln!("benchmark: {msg}");
        ExitCode::from(2)
    })
}
