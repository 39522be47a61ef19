//! `perflab` — the repo's own benchmark. See `README.md` beside this
//! package for the protocol; `BENCHMARK.json` at the repo root is its
//! manifest.

mod calib;
mod compare;
mod host;
mod json;
mod layers;
mod mix;
mod stats;
mod sut;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use stats::{median, spread_iqr, spread_range};
use trace::Tracer;
use workload::{Spec, SMOKE_FACTOR, SPECS};

const USAGE: &str = "\
usage: perflab run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--set NAME]
       perflab compare <a.json> <b.json>
       perflab digests

run      with --workload: one workload in this process; every metric is printed by
         name with its unit and the last line is the result as one JSON object.
         --trace 0 is the timed run (end-to-end metrics), --trace 1 the traced
         run (per-layer metrics, perflab/out/trace-W.json).
         Without --workload: every workload, timed and traced, each in a child
         process; writes perflab/out/result-<set>.json.
compare  holds two result files to the bounds in BENCHMARK.json.
digests  rewrites perflab/expected/digests.json from the reference store.";

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` at which a run does
/// the rounds its workload's `Spec` fixes. Another `--seconds` scales the
/// number of rounds, never their size.
const RUN_SECONDS: u64 = 10;

/// `(name, unit)` of the end-to-end metrics, in report order —
/// `BENCHMARK.json` lists exactly these.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("lat_geo_p50_ms", "ms"),
    ("ttfi_geo_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("space_ratio", "ratio"),
];

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    set: String,
}

impl Options {
    /// How many rounds to run where the protocol fixes `base` of them for
    /// `RUN_SECONDS`. A function of the arguments alone — never of how
    /// fast the program runs. `--smoke` runs one.
    fn rounds(&self, base: usize) -> usize {
        if self.smoke {
            1
        } else {
            (base * self.seconds as usize / RUN_SECONDS as usize).max(1)
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        set: "local".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--set" => o.set = value()?.clone(),
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !json::is_metric_name(&o.set) {
        return Err(format!("--set {:?} is not a plain name", o.set));
    }
    Ok(o)
}

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    package_dir().join("out")
}

fn detail_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("detail-{workload}-t{}.json", u8::from(trace)))
}

fn digests_path() -> PathBuf {
    package_dir().join("expected").join("digests.json")
}

/// The committed digests, or an empty object when the file is missing
/// (every store is still compared against the reference store).
fn committed_digests() -> Json {
    std::fs::read_to_string(digests_path())
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .unwrap_or(Json::Obj(Vec::new()))
}

/// Scratch directory of one run, removed when the run ends — also when
/// it ends by a panic.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("perflab/out is writable");
        // Any scratch page file the system makes on its own lands here too.
        std::env::set_var("XMARK_PAGED_DIR", &dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What is behind one reported median.
fn behind(samples: &[f64]) -> Json {
    Json::obj([
        ("samples", Json::Num(samples.len() as f64)),
        ("spread_iqr", Json::Num(spread_iqr(samples))),
        ("spread_range", Json::Num(spread_range(samples))),
        ("values", Json::nums(samples)),
    ])
}

/// Print every metric by name with its unit, write the detail file, and
/// close with the line the driver reads.
fn finish(
    spec: &Spec,
    o: &Options,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
    detail: Json,
) -> ExitCode {
    let metrics = Json::obj(metrics.iter().map(|(name, value, unit)| {
        assert!(json::is_metric_name(name), "metric name {name:?}");
        let value = Json::Num(*value);
        println!("{name} = {} {unit}", value.render());
        (
            name.as_str(),
            Json::obj([("value", value), ("unit", Json::str(*unit))]),
        )
    }));
    let result = [
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ];
    let mut file = vec![
        ("workload", Json::str(spec.name)),
        ("trace", Json::Bool(o.trace)),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds as f64)),
        ("comparable", Json::Bool(!o.smoke)),
    ];
    file.extend(result.iter().cloned());
    let mut file = Json::obj(file);
    if let (Json::Obj(pairs), Json::Obj(more)) = (&mut file, detail) {
        pairs.extend(more);
    }
    std::fs::write(detail_path(spec.name, o.trace), file.render() + "\n")
        .expect("perflab/out is writable");
    let line = [("correct", Json::Bool(failed == 0))]
        .into_iter()
        .chain(result);
    println!("{}", Json::obj(line).render());
    ExitCode::SUCCESS
}

/// One workload, timed: tracing off, closed loop through the service.
fn run_timed(spec: &'static Spec, o: &Options) -> ExitCode {
    let scratch = Scratch::new();
    let factor = if o.smoke { SMOKE_FACTOR } else { spec.factor };
    let mut schedule = mix::Schedule::new((spec.mix)(), o.seed);
    let mix = schedule.mix().to_vec();
    let committed = committed_digests();

    // Each set-up is a system of its own — its own heap layout, page
    // file, plan cache and (mixed_rw) overlay and WAL — followed by the
    // same fixed rounds, and gives one sample of every metric: the median
    // over its rounds. So the samples of a run are exchangeable even
    // where a set-up's rounds are not (mixed_rw's get slower as the
    // overlay grows), and a faster program runs no deeper into a
    // set-up's life than a slower one.
    let setups = if o.smoke { 1 } else { spec.setups };
    let rounds = o.rounds(spec.rounds);
    let mut off = Tracer::new(false);
    // `(wall seconds, clock probe)` of every set-up.
    let mut setup_raw: Vec<(f64, f64)> = Vec::new();
    let mut by_setup: Vec<Vec<workload::RoundMetrics>> = Vec::new();
    let mut timed = workload::Timed::default();
    let mut expected = None;
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut commits = 0;
    let mut last = None;
    let mut rss = None;
    for _ in 0..setups {
        let before = calib::kernel_ms();
        let start = Instant::now();
        let (rig, xml) = workload::setup(spec, factor, &mix, &scratch.0, &mut off);
        let wall_s = start.elapsed().as_secs_f64();
        setup_raw.push((wall_s, (before + calib::kernel_ms()) / 2.0));
        // The oracle runs once: every set-up loads the same document, and
        // every request of every set-up is held to what it derives.
        let expected = expected.get_or_insert_with(|| {
            let oracle = workload::oracle(&rig, &xml, factor, &mix, &committed);
            attempted += oracle.checks;
            failures.extend(oracle.failures);
            oracle.expected
        });
        drop(xml);
        let mut lane = rig
            .versioned
            .as_ref()
            .map(|v| sut::WriterLane::new(v, o.seed));
        by_setup.push(workload::measure(
            &rig,
            &mut schedule,
            expected,
            rounds,
            lane.as_mut(),
            &mut timed,
        ));
        last = Some((
            rig.space_ratio(),
            rig.pool_pages,
            rig.file_pages,
            rig.doc_bytes,
            rig.cells
                .iter()
                .map(|c| Json::str(&c.label))
                .collect::<Vec<_>>(),
        ));
        match lane {
            Some(lane) => {
                commits += lane.commits;
                let closed = workload::close_mixed(rig, lane, &mix, expected, &mut off);
                attempted += closed.checks;
                failures.extend(closed.failures);
            }
            // The rig goes before the next set-up, so that one is
            // resident at a time.
            None => drop(rig),
        }
        // The high-water mark of one system's whole life: set-up, oracle,
        // measured rounds, shutdown. Later set-ups would add to it only
        // what the allocator happened not to reuse (measured: 43 or
        // 49 MB on mixed_rw, at random), which no deployment sees.
        rss.get_or_insert_with(host::peak_rss_mb);
    }
    let rss = rss.expect("at least one set-up");
    let (space_ratio, pool_pages, file_pages, doc_bytes, cells) =
        last.expect("at least one set-up");
    attempted += timed.attempted;
    for failure in &failures {
        eprintln!("FAILED: {failure}");
    }
    let failed = timed.failed + failures.len();

    // How much longer than at the reference clock an interval took whose
    // clock probe read `probe_ms` (1 for a workload that is not corrected).
    let slowdown = |probe_ms: f64| {
        if spec.clock_corrected {
            probe_ms / calib::REFERENCE_MS
        } else {
            1.0
        }
    };
    // One sample per set-up: the median over its rounds.
    let per_setup = |f: &dyn Fn(&workload::RoundMetrics) -> f64| -> Vec<f64> {
        by_setup
            .iter()
            .map(|rounds| median(&rounds.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let setup_s: Vec<f64> = setup_raw
        .iter()
        .map(|&(wall_s, probe_ms)| wall_s / slowdown(probe_ms))
        .collect();
    let by_round = |f: fn(&workload::RoundMetrics) -> f64| {
        Json::Arr(
            by_setup
                .iter()
                .map(|rounds| Json::nums(&rounds.iter().map(f).collect::<Vec<_>>()))
                .collect(),
        )
    };
    let samples: [&[f64]; 6] = [
        &setup_s,
        &per_setup(&|r| r.qps * slowdown(r.clock_probe_ms)),
        &per_setup(&|r| r.lat_geo_p50_ms / slowdown(r.clock_probe_ms)),
        &per_setup(&|r| r.ttfi_geo_p50_ms / slowdown(r.clock_probe_ms)),
        &[rss],
        &[space_ratio],
    ];
    let metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .zip(samples)
        .map(|((name, unit), samples)| (name.to_string(), median(samples), *unit))
        .collect();
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    let round_requests = spec.round_requests();
    let detail = Json::obj([
        (
            "behind",
            Json::obj(
                END_TO_END
                    .iter()
                    .zip(samples)
                    .map(|((name, _), samples)| (*name, behind(samples))),
            ),
        ),
        ("factor", Json::Num(factor)),
        ("workers", Json::Num(spec.workers as f64)),
        ("nproc", Json::Num(host::nproc() as f64)),
        (
            "mix",
            Json::nums(&mix.iter().map(|&q| q as f64).collect::<Vec<_>>()),
        ),
        ("cells", Json::Arr(cells)),
        ("setups", Json::Num(setups as f64)),
        ("rounds_per_setup", Json::Num(rounds as f64)),
        ("requests_per_round", Json::Num(round_requests as f64)),
        // Every round draws this many latency samples per query (and cell).
        ("samples_per_query_per_round", Json::Num(spec.cycles as f64)),
        ("clock_corrected", Json::Bool(spec.clock_corrected)),
        (
            "setups_raw",
            Json::obj([
                (
                    "wall_s",
                    Json::nums(&setup_raw.iter().map(|s| s.0).collect::<Vec<_>>()),
                ),
                (
                    "clock_probe_ms",
                    Json::nums(&setup_raw.iter().map(|s| s.1).collect::<Vec<_>>()),
                ),
            ]),
        ),
        // Every round of every set-up, in the order they ran, as measured.
        (
            "rounds",
            Json::obj([
                ("wall_s", by_round(|r| r.wall_s)),
                ("qps", by_round(|r| r.qps)),
                ("lat_geo_p50_ms", by_round(|r| r.lat_geo_p50_ms)),
                ("ttfi_geo_p50_ms", by_round(|r| r.ttfi_geo_p50_ms)),
                ("commit_p50_ms", by_round(|r| r.commit_p50_ms)),
                ("commit_p95_ms", by_round(|r| r.commit_p95_ms)),
                ("clock_probe_ms", by_round(|r| r.clock_probe_ms)),
            ]),
        ),
        ("doc_bytes", Json::Num(doc_bytes as f64)),
        ("pool_pages", opt(pool_pages.map(|p| p as f64))),
        ("file_pages", opt(file_pages.map(f64::from))),
        ("commits", Json::Num(commits as f64)),
        (
            "plan_cache_hit_rate",
            Json::Num(timed.plan_hits as f64 / (timed.plan_hits + timed.plan_misses).max(1) as f64),
        ),
        ("index_builds_warm", Json::Num(timed.index_builds as f64)),
        (
            "failures",
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
    ]);
    println!(
        "{}: factor {factor}, {setups} set-up(s) x {rounds} round(s) of {round_requests} requests, \
         {} worker(s), {commits} commit(s)",
        spec.name, spec.workers
    );
    finish(spec, o, attempted, failed, &metrics, detail)
}

/// One workload, traced: per-layer metrics and the span file.
fn run_traced(spec: &'static Spec, o: &Options) -> ExitCode {
    let scratch = Scratch::new();
    let factor = if o.smoke { SMOKE_FACTOR } else { spec.factor };
    let traced = layers::traced_run(
        spec,
        factor,
        o.seed,
        o.rounds(layers::TRACE_ROUNDS),
        &scratch.0,
        &committed_digests(),
    );
    for failure in &traced.oracle_failures {
        eprintln!("FAILED: {failure}");
    }
    let spans = traced.tracer.spans().len();
    let trace_path = out_dir().join(format!("trace-{}.json", spec.name));
    std::fs::write(&trace_path, traced.tracer.to_json().render() + "\n")
        .expect("perflab/out is writable");
    println!(
        "{}: {spans} spans written to {}",
        spec.name,
        trace_path.display()
    );
    let metrics: Vec<(String, f64, &str)> = traced
        .metrics
        .into_iter()
        .map(|m| (m.name, m.value, m.unit))
        .collect();
    let detail = Json::obj([
        ("factor", Json::Num(factor)),
        ("traced_setup_s", Json::Num(traced.setup_s)),
        ("spans", Json::Num(spans as f64)),
        (
            "failures",
            Json::Arr(traced.oracle_failures.iter().map(Json::str).collect()),
        ),
    ]);
    finish(
        spec,
        o,
        traced.tally.attempted,
        traced.tally.failed,
        &metrics,
        detail,
    )
}

/// Every workload, timed then traced, each in a child process of its
/// own (so `peak_rss_mb` is the workload's and a panic costs one cell).
fn run_set(o: &Options) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut workloads = Vec::new();
    let mut clean = true;
    for spec in &SPECS {
        let mut cell = Vec::new();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", spec.name])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(Stdio::inherit())
                .stderr(Stdio::inherit());
            if o.smoke {
                cmd.arg("--smoke");
            }
            let detail_path = detail_path(spec.name, trace);
            let _ = std::fs::remove_file(&detail_path);
            let ok = cmd.status().is_ok_and(|s| s.success());
            let detail = std::fs::read_to_string(&detail_path)
                .ok()
                .and_then(|text| Json::parse(&text).ok());
            let detail = match (ok, detail) {
                (true, Some(detail)) => detail,
                // A run that panicked has no result: all of it failed.
                _ => Json::obj([("aborted", Json::Bool(true)), ("failed", Json::Null)]),
            };
            clean &= detail.get("failed").and_then(Json::as_f64) == Some(0.0);
            cell.push((if trace { "traced" } else { "timed" }, detail));
        }
        workloads.push((spec.name, Json::obj(cell)));
    }
    let result = Json::obj([
        ("set", Json::str(&o.set)),
        ("host", host::metadata()),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds as f64)),
        ("comparable", Json::Bool(!o.smoke && clean)),
        ("workloads", Json::obj(workloads)),
        ("claim", Json::Null),
    ]);
    let path = out_dir().join(format!("result-{}.json", o.set));
    std::fs::create_dir_all(out_dir()).expect("perflab/out is writable");
    std::fs::write(&path, result.render() + "\n").expect("perflab/out is writable");
    println!("result set written to {} (\"claim\": null)", path.display());
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Rewrite the committed digests from a fresh reference store.
fn write_digests() -> ExitCode {
    let _scratch = Scratch::new();
    let mut factors: Vec<f64> = SPECS.iter().map(|s| s.factor).collect();
    factors.push(SMOKE_FACTOR);
    factors.sort_by(f64::total_cmp);
    factors.dedup();
    let mut lines = Vec::new();
    for factor in factors {
        let reference = sut::load(sut::SYSTEM_G, &sut::generate(factor));
        let per_query = Json::obj(mix::all20().into_iter().map(|q| {
            let output = sut::canonical(reference.as_ref(), q);
            (q.to_string(), Json::Str(workload::digest(&output)))
        }));
        lines.push(format!("  \"{factor}\": {}", per_query.render()));
    }
    let text = format!("{{\n{}\n}}\n", lines.join(",\n"));
    std::fs::write(digests_path(), text).expect("perflab/expected is writable");
    println!("wrote {}", digests_path().display());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |message: String| {
        eprintln!("perflab: {message}\n{USAGE}");
        ExitCode::from(2)
    };
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return fail("no command".to_string()),
    };
    match command {
        "run" => {
            let o = match parse_options(rest) {
                Ok(o) => o,
                Err(e) => return fail(e),
            };
            std::fs::create_dir_all(out_dir()).expect("perflab/out is writable");
            match &o.workload {
                None => run_set(&o),
                Some(name) => match workload::spec(name) {
                    None => fail(format!(
                        "unknown workload {name}; there are {:?}",
                        SPECS.map(|s| s.name)
                    )),
                    Some(spec) if o.trace => run_traced(spec, &o),
                    Some(spec) => run_timed(spec, &o),
                },
            }
        }
        "compare" => match rest {
            [a, b] => {
                let manifest = package_dir().join("..").join("BENCHMARK.json");
                match compare::compare(a, b, &manifest) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => ExitCode::FAILURE,
                    Err(e) => fail(e),
                }
            }
            _ => fail("compare takes two result files".to_string()),
        },
        "digests" => write_digests(),
        other => fail(format!("unknown command {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the code's tables are what
    /// runs. They must say the same.
    #[test]
    fn manifest_lists_exactly_what_the_code_reports() {
        let path = package_dir().join("..").join("BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    fields
                        .iter()
                        .map(|f| m.get(f).and_then(Json::as_str).unwrap().to_string())
                        .collect()
                })
                .collect()
        };
        let workloads: Vec<Vec<String>> = SPECS.iter().map(|s| vec![s.name.to_string()]).collect();
        assert_eq!(list("workloads", &["name"]), workloads);
        // The run length is part of the manifest: each `why` closes with it.
        assert_eq!(
            manifest.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        for (spec, why) in SPECS.iter().zip(list("workloads", &["why"])) {
            let length = format!(
                "{} set-ups x {} rounds of {} requests.",
                spec.setups,
                spec.rounds,
                spec.round_requests()
            );
            assert!(why[0].ends_with(&length), "{}: {}", spec.name, why[0]);
        }
        let end_to_end: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect();
        assert_eq!(list("end_to_end", &["name", "unit"]), end_to_end);
        let per_layer: Vec<Vec<String>> = layers::layer_metric_table()
            .into_iter()
            .map(|(n, u, b)| vec![n, u.to_string(), b.to_string()])
            .collect();
        assert_eq!(list("per_layer", &["name", "unit", "better"]), per_layer);
        for name in list("per_layer", &["name"])
            .iter()
            .chain(&list("end_to_end", &["name"]))
        {
            assert!(json::is_metric_name(&name[0]), "{name:?}");
        }
        assert_eq!(
            manifest.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::str("perflab")]
        );
    }

    #[test]
    fn options_parse_the_drivers_arguments() {
        let args: Vec<String> = "--workload lookup_mem --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.workload.as_deref(), Some("lookup_mem"));
        assert_eq!((o.seed, o.seconds, o.trace, o.smoke), (7, 3, true, false));
        // Rounds follow --seconds, in whole rounds and never below one.
        assert_eq!((o.rounds(3), o.rounds(10)), (1, 3));
        let o = parse_options(&["--seconds".to_string(), "20".to_string()]).unwrap();
        assert_eq!(o.rounds(3), 6);
        assert!(parse_options(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(parse_options(&["--seed".to_string()]).is_err());
        assert!(parse_options(&["--bogus".to_string()]).is_err());
    }
}
