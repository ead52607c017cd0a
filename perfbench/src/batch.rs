//! The three batch-style workloads: `batch-range` (in-RAM materialize and
//! step-2 sweep over a MinPts range), `topn-lattice` (the bound-driven
//! top-n engine) and `ooc-spill` (the same job as `batch-range` from an
//! mmap'd `.lofd` through the disk-spilled table).
//!
//! An operation is one scoring job. Untraced runs drive the job through
//! `lof_cli::run` / `lof_cli::run_topn`, the calls the `lof` binary makes.
//! Traced runs make the same layer calls one by one from here, inside
//! spans, and alternate them with untraced jobs so the two can be
//! compared.

use crate::gen::{self, Points};
use crate::reference::{close, Reference};
use crate::report::{fastest, median, peak_rss_mb, spread_line, timed_setup, Outcome};
use crate::trace::Tracer;
use crate::Ctx;
use lof_core::{
    build_table_parallel, Aggregate, Euclidean, LofDetector, Lofd, MinPtsRange, PartitionSource,
    SpilledNeighborhoodTable, TopNEngine,
};
use lof_index::KdTree;
use std::path::Path;
use std::time::Instant;

/// Rows of the `batch-range` and `ooc-spill` inputs.
pub const CLUSTERED_N: usize = 60_000;
/// Rows of the `topn-lattice` input.
pub const LATTICE_N: usize = 100_000;
/// `topn-lattice` inputs per untraced run, each from its own seed. How many
/// whole lattices the engine refines swings with the row order (README),
/// and with it the job time, by 20-25%: with one input per run, ten runs
/// spread 25%. Jobs cycle through the inputs and the run reports the mean
/// of each input's fastest job, so every run pays the swing in about the
/// same measure.
const LATTICE_INPUTS: usize = 4;
/// The MinPts range of `batch-range` and `ooc-spill`.
const RANGE: (usize, usize) = (10, 30);
/// `topn-lattice`: result size and MinPts.
const TOP_N: usize = 100;
const TOP_MIN_PTS: usize = 20;
/// Objects checked against the reference on top of the planted outliers
/// sampled.
const SAMPLE_RANDOM: usize = 24;
const SAMPLE_PLANTED: usize = 8;
/// Relative tolerance of a score against the reference: the program and
/// the reference sum reach-distances and density ratios in different
/// orders, which moves the last few bits.
const SCORE_TOL: f64 = 1e-9;
/// Traced runs: the summed self times of a job's layer calls must stay
/// within this share of the untraced job time.
const COVERAGE_TOL: f64 = 0.25;

fn cli_args(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_owned()).collect()
}

/// Runs `op` in whole rounds until `seconds` have passed (at least once)
/// and returns each round's wall time.
fn rounds(seconds: f64, mut op: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        op();
        times.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            return times;
        }
    }
}

/// The end-to-end metrics every batch-style workload reports: set-up
/// time, the job time `job_s` from loaded input to complete result (every
/// object's score arrives when its job ends, so this is its latency) and
/// peak memory. `times` are all the run's job times.
fn batch_metrics(out: &mut Outcome, setup_s: f64, job_s: f64, times: &[f64]) -> Result<(), String> {
    eprintln!("perfbench: {}", spread_line("job s", times));
    let m = &mut out.metrics;
    m.add("setup_s", setup_s, "s");
    m.add("latency_ms", job_s * 1e3, "ms");
    m.add("rss_peak_mb", peak_rss_mb("self")?, "MB");
    Ok(())
}

/// A seeded sample of ids: `SAMPLE_PLANTED` planted outliers and
/// `SAMPLE_RANDOM` arbitrary rows.
fn sample_ids(points: &Points, seed: u64) -> Vec<usize> {
    let mut rng = gen::Rng::new(seed ^ 0x5a4d_504c_4500);
    let mut ids: Vec<usize> =
        (0..SAMPLE_PLANTED).map(|_| points.planted[rng.below(points.planted.len())]).collect();
    ids.extend((0..SAMPLE_RANDOM).map(|_| rng.below(points.len())));
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Checks a full score vector: every score finite and positive, and a
/// sample (with planted outliers) equal to the reference's max-LOF over
/// the range.
fn check_range_scores(out: &mut Outcome, ctx: &Ctx, points: &Points, scores: &[f64]) {
    if scores.len() != points.len() {
        out.errors.push(format!("{} scores for {} rows", scores.len(), points.len()));
        return;
    }
    if let Some((id, s)) = scores.iter().enumerate().find(|(_, s)| !(s.is_finite() && **s > 0.0)) {
        out.errors.push(format!("row {id} scored {s}, not finite and positive"));
    }
    let ids = sample_ids(points, ctx.workload_seed);
    let mut reference = Reference::new(&points.coords, points.dims, RANGE.1);
    reference.prepare(&ids, ctx.threads);
    for id in ids {
        let want = reference.lof_max(id, RANGE.0, RANGE.1);
        if !close(scores[id], want, SCORE_TOL) {
            out.errors.push(format!("row {id}: program {} vs reference {want}", scores[id]));
        }
    }
}

fn write_input(ctx: &Ctx, points: &Points, name: &str) -> Result<String, String> {
    let path = ctx.work.join(name);
    points.write_csv(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.to_string_lossy().into_owned())
}

// ---- batch-range ------------------------------------------------------

pub fn batch_range(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let points = gen::clustered(ctx.workload_seed, CLUSTERED_N);
    let csv = write_input(ctx, &points, "batch.csv")?;
    let range = format!("{}..{}", RANGE.0, RANGE.1);
    let config = lof_cli::parse_args(&cli_args(&[
        "--minpts",
        &range,
        "--aggregate",
        "max",
        "--threads",
        "1",
        &csv,
    ]))?;
    if ctx.trace {
        return batch_range_traced(ctx, out, &points, &csv, &config);
    }
    let (setup_s, data) = timed_setup(|| lof_cli::load_input(&csv))?;
    let mut last = None;
    let times = rounds(ctx.seconds, || {
        out.attempted += 1;
        match lof_cli::run(&config, &data) {
            Ok(result) => last = Some(result.scores),
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("run failed: {e}"));
            }
        }
    });
    batch_metrics(out, setup_s, fastest(&times), &times)?;
    if let Some(scores) = last {
        check_range_scores(out, ctx, &points, &scores);
    }
    Ok(())
}

fn batch_range_traced(
    ctx: &Ctx,
    out: &mut Outcome,
    points: &Points,
    csv: &str,
    config: &lof_cli::Config,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let data = tr.span("data.load", |_| lof_cli::load_input(csv))?;
    let detector = LofDetector::with_range(RANGE.0, RANGE.1)
        .map_err(|e| e.to_string())?
        .aggregate(Aggregate::Max)
        .threads(config.threads);
    lof_cli::run(config, &data)?; // warm-up, untimed
    let mut untraced = Vec::new();
    let mut table_mb = 0.0;
    let mut scores = Vec::new();
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        out.attempted += 2;
        let t = Instant::now();
        let plain = lof_cli::run(config, &data)?;
        untraced.push(t.elapsed().as_secs_f64());
        let traced = tr.span("job", |tr| -> Result<Vec<f64>, String> {
            let tree = tr.span("index.build", |_| KdTree::new(&data, Euclidean));
            let table = tr.span("materialize.build", |_| {
                build_table_parallel(&tree, RANGE.1, config.threads)
            });
            let table = table.map_err(|e| e.to_string())?;
            table_mb = table.memory_bytes() as f64 / 1e6;
            let result = tr.span("range.lof_range", |_| detector.detect_from_table(&table));
            Ok(result.map_err(|e| e.to_string())?.scores())
        })?;
        // The same call at the CLI's default thread count, outside the job.
        let tree = KdTree::new(&data, Euclidean);
        let threads = lof_cli::default_threads();
        tr.span("materialize.build_parallel", |_| build_table_parallel(&tree, RANGE.1, threads))
            .map_err(|e| e.to_string())?;
        if !bit_identical(&traced, &plain.scores) {
            out.errors.push("layer-by-layer scores differ from lof_cli::run".to_owned());
        }
        scores = traced;
    }
    let m = &mut out.metrics;
    let med = |name: &str| median(&tr.self_times(name));
    m.add("data.load_s", med("data.load"), "s");
    m.add("index.build_s", med("index.build"), "s");
    m.add("materialize.build_s", med("materialize.build"), "s");
    m.add("materialize.build_parallel_s", med("materialize.build_parallel"), "s");
    m.add("materialize.table_mb", table_mb, "MB");
    m.add("range.lof_range_s", med("range.lof_range"), "s");
    coverage_metrics(out, &tr, "batch-range", &untraced);
    check_range_scores(out, ctx, points, &scores);
    write_spans(ctx, &tr, "batch-range")
}

fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Tracing overhead and a check that the layer spans account for the job.
/// Traced and untraced jobs run in pairs, one beside the other, so each
/// traced job is compared with the untraced job run next to it and host
/// drift between pairs cancels out. `trace.overhead_s` is the median of
/// the per-pair differences (traced minus untraced job time); the median
/// per-pair ratio of the traced job's summed layer self times to the
/// untraced job time must stay within `COVERAGE_TOL` of 1. That share is
/// printed as its own line.
fn coverage_metrics(out: &mut Outcome, tr: &Tracer, workload: &str, untraced: &[f64]) {
    let jobs = tr.coverage("job");
    let overhead: Vec<f64> = jobs.iter().zip(untraced).map(|(j, u)| j.0 - u).collect();
    let shares: Vec<f64> = jobs.iter().zip(untraced).map(|(j, u)| j.1 / u).collect();
    let share = median(&shares);
    out.metrics.add("trace.overhead_s", median(&overhead), "s");
    println!(
        "{{\"layer_share\": {{\"workload\": \"{workload}\", \"pairs\": {}, \"share\": {share}, \"tolerance\": {COVERAGE_TOL}}}}}",
        shares.len()
    );
    if (share - 1.0).abs() > COVERAGE_TOL {
        out.errors.push(format!(
            "{workload}: layer self times sum to {share:.3} of the untraced job time"
        ));
    }
}

fn write_spans(ctx: &Ctx, tr: &Tracer, workload: &str) -> Result<(), String> {
    let path = ctx.spans_dir.join(format!("{workload}-seed{}.jsonl", ctx.seed));
    tr.write(&path).map_err(|e| format!("cannot write spans to {}: {e}", path.display()))
}

// ---- topn-lattice -----------------------------------------------------

fn topn_args(csv: &str) -> Result<lof_cli::TopNArgs, String> {
    let (n, k) = (TOP_N.to_string(), TOP_MIN_PTS.to_string());
    lof_cli::parse_topn_args(&cli_args(&["--n", &n, "--minpts", &k, "--threads", "1", csv]))
}

pub fn topn_lattice(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    if ctx.trace {
        let points = gen::lattice(ctx.workload_seed, LATTICE_N);
        let csv = write_input(ctx, &points, "lattice.csv")?;
        return topn_traced(ctx, out, &points, &csv, &topn_args(&csv)?);
    }
    let mut inputs = Vec::new();
    let mut setup_s = 0.0;
    for i in 0..LATTICE_INPUTS {
        let seed = gen::workload_seed(ctx.workload_seed, &format!("input{i}"));
        let points = gen::lattice(seed, LATTICE_N);
        let csv = write_input(ctx, &points, &format!("lattice{i}.csv"))?;
        let args = topn_args(&csv)?;
        let data = if i == 0 {
            let (t, data) = timed_setup(|| lof_cli::load_input(&csv))?;
            setup_s = t;
            data
        } else {
            lof_cli::load_input(&csv)?
        };
        inputs.push((points, args, data));
    }
    let mut times = vec![Vec::new(); inputs.len()];
    let mut last = vec![None; inputs.len()];
    let start = Instant::now();
    while times[0].is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        for (i, (_, args, data)) in inputs.iter().enumerate() {
            out.attempted += 1;
            let t = Instant::now();
            match lof_cli::run_topn(args, data) {
                Ok(result) => last[i] = Some(result.report),
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(format!("run_topn failed: {e}"));
                }
            }
            times[i].push(t.elapsed().as_secs_f64());
        }
    }
    let job_s = times.iter().map(|t| fastest(t)).sum::<f64>() / times.len() as f64;
    batch_metrics(out, setup_s, job_s, &times.concat())?;
    for ((points, _, _), report) in inputs.iter().zip(last) {
        if let Some(report) = report {
            check_topn(out, ctx, points, &report);
        }
    }
    Ok(())
}

fn topn_traced(
    ctx: &Ctx,
    out: &mut Outcome,
    points: &Points,
    csv: &str,
    args: &lof_cli::TopNArgs,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let data = tr.span("data.load", |_| lof_cli::load_input(csv))?;
    let engine = TopNEngine::new(args.min_pts, args.n).with_threads(args.threads);
    lof_cli::run_topn(args, &data)?; // warm-up, untimed
    let mut untraced = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        out.attempted += 2;
        let t = Instant::now();
        let plain = lof_cli::run_topn(args, &data)?;
        untraced.push(t.elapsed().as_secs_f64());
        let result = tr.span("job", |tr| {
            let tree = tr.span("index.build", |_| KdTree::new(&data, Euclidean));
            let partitions = tr.span("index.partitions", |_| tree.partitions());
            tr.span("topn.run", |_| engine.run(&tree, &partitions))
        });
        let result = result.map_err(|e| e.to_string())?;
        if result.ranking != plain.report {
            out.errors.push("layer-by-layer ranking differs from lof_cli::run_topn".to_owned());
        }
        last = Some(result);
    }
    let result = last.expect("at least one traced job");
    let m = &mut out.metrics;
    let med = |name: &str| median(&tr.self_times(name));
    m.add("data.load_s", med("data.load"), "s");
    m.add("index.build_s", med("index.build"), "s");
    m.add("index.partitions_s", med("index.partitions"), "s");
    m.add("topn.run_s", med("topn.run"), "s");
    let s = result.stats;
    m.add("topn.objects_refined", s.objects_refined as f64, "count");
    m.add("topn.partitions_pruned", s.partitions_pruned as f64, "count");
    m.add("topn.refined_frac", s.objects_refined as f64 / points.len() as f64, "ratio");
    coverage_metrics(out, &tr, "topn-lattice", &untraced);
    check_topn(out, ctx, points, &result.ranking);
    write_spans(ctx, &tr, "topn-lattice")
}

/// Every reported `(id, score)` equals the reference LOF, the list is
/// sorted by (score desc, id asc), and a seeded sample of unreported
/// objects all score at most the n-th reported score.
fn check_topn(out: &mut Outcome, ctx: &Ctx, points: &Points, report: &[(usize, f64)]) {
    if report.len() != TOP_N {
        out.errors.push(format!("top-n returned {} rows, expected {TOP_N}", report.len()));
        return;
    }
    if report.windows(2).any(|w| w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 >= w[1].0)) {
        out.errors.push("top-n ranking is not sorted by (score desc, id asc)".to_owned());
    }
    let reported: std::collections::HashSet<usize> = report.iter().map(|r| r.0).collect();
    let mut rng = gen::Rng::new(ctx.workload_seed ^ 0x746f_706e);
    let unreported: Vec<usize> = (0..SAMPLE_RANDOM + SAMPLE_PLANTED)
        .map(|i| {
            if i < SAMPLE_PLANTED {
                points.planted[rng.below(points.planted.len())]
            } else {
                rng.below(points.len())
            }
        })
        .filter(|id| !reported.contains(id))
        .collect();
    let ids: Vec<usize> = report.iter().map(|r| r.0).chain(unreported.iter().copied()).collect();
    let mut reference = Reference::new(&points.coords, points.dims, TOP_MIN_PTS);
    reference.prepare(&ids, ctx.threads);
    for &(id, score) in report {
        let want = reference.lof(id, TOP_MIN_PTS);
        if !close(score, want, SCORE_TOL) {
            out.errors.push(format!("top-n row {id}: program {score} vs reference {want}"));
        }
    }
    let nth = report[TOP_N - 1].1;
    for id in unreported {
        let want = reference.lof(id, TOP_MIN_PTS);
        if want > nth * (1.0 + SCORE_TOL) {
            out.errors.push(format!("unreported row {id} scores {want}, above the n-th {nth}"));
        }
    }
}

// ---- ooc-spill --------------------------------------------------------

/// The `ooc-spill` memory budget: an eighth of the in-RAM table, which
/// stores 16 bytes per neighbor and `MinPtsUB` neighbors per row.
fn spill_budget(n: usize) -> usize {
    n * RANGE.1 * 16 / 8
}

/// Ingests the CSV into a fresh `.lofd` and opens it.
fn ingest_and_open(csv: &Path, lofd: &Path) -> Result<Lofd, String> {
    let _ = std::fs::remove_file(lofd);
    lof_data::ingest::ingest_csv(csv, lofd, None, false).map_err(|e| e.to_string())?;
    Lofd::open(lofd).map_err(|e| e.to_string())
}

pub fn ooc_spill(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let points = gen::clustered(ctx.workload_seed, CLUSTERED_N);
    let csv = write_input(ctx, &points, "ooc.csv")?;
    let lofd = ctx.work.join("ooc.lofd");
    let lofd_str = lofd.to_string_lossy().into_owned();
    let range = format!("{}..{}", RANGE.0, RANGE.1);
    let budget = spill_budget(points.len()).to_string();
    let config = lof_cli::parse_args(&cli_args(&[
        "--minpts",
        &range,
        "--aggregate",
        "max",
        "--memory-budget",
        &budget,
        &lofd_str,
    ]))?;
    if ctx.trace {
        return ooc_traced(ctx, out, &points, Path::new(&csv), &lofd, &config);
    }
    let (setup_s, opened) = timed_setup(|| ingest_and_open(Path::new(&csv), &lofd))?;
    let data = opened.dataset();
    let mut last = None;
    let times = rounds(ctx.seconds, || {
        out.attempted += 1;
        match lof_cli::run(&config, &data) {
            Ok(result) => last = Some(result.scores),
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("spilled run failed: {e}"));
            }
        }
    });
    batch_metrics(out, setup_s, fastest(&times), &times)?;
    if let Some(scores) = last {
        check_range_scores(out, ctx, &points, &scores);
    }
    Ok(())
}

fn ooc_traced(
    ctx: &Ctx,
    out: &mut Outcome,
    points: &Points,
    csv: &Path,
    lofd: &Path,
    config: &lof_cli::Config,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let _ = std::fs::remove_file(lofd);
    tr.span("data.ingest", |_| lof_data::ingest::ingest_csv(csv, lofd, None, false))
        .map_err(|e| e.to_string())?;
    let opened = tr.span("lofd.open", |_| Lofd::open(lofd)).map_err(|e| e.to_string())?;
    let data = opened.dataset();
    let budget = spill_budget(points.len());
    let range = MinPtsRange::new(RANGE.0, RANGE.1).map_err(|e| e.to_string())?;
    lof_cli::run(config, &data)?; // warm-up, untimed
    let registry_reloads = lof_obs::global().counter("core.ooc.segment_reloads");
    let mut untraced = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        out.attempted += 2;
        let t = Instant::now();
        let plain = lof_cli::run(config, &data)?;
        untraced.push(t.elapsed().as_secs_f64());
        let registry_before = registry_reloads.value();
        let (scores, segments, stats) = tr.span("job", |tr| -> Result<_, String> {
            let tree = tr.span("index.build", |_| KdTree::new(&data, Euclidean));
            let table = tr.span("spill.build", |_| {
                SpilledNeighborhoodTable::build(&tree, RANGE.1, budget, &ctx.work)
            });
            let table = table.map_err(|e| e.to_string())?;
            let scores = tr.span("spill.lof_range", |_| table.lof_range(range, Aggregate::Max));
            let scores = scores.map_err(|e| e.to_string())?.scores().to_vec();
            Ok((scores, table.segment_count(), table.stats()))
        })?;
        // The same build with the whole table in one segment, outside the
        // job: what the budget's segmenting costs.
        let tree = KdTree::new(&data, Euclidean);
        tr.span("spill.build_one_segment", |_| {
            SpilledNeighborhoodTable::build(&tree, RANGE.1, usize::MAX / 2, &ctx.work)
        })
        .map_err(|e| e.to_string())?;
        if !bit_identical(&scores, &plain.scores) {
            out.errors.push("layer-by-layer spilled scores differ from lof_cli::run".to_owned());
        }
        last = Some((scores, segments, stats, registry_reloads.value() - registry_before));
    }
    let (scores, segments, stats, registry) = last.expect("at least one traced job");
    let m = &mut out.metrics;
    let med = |name: &str| median(&tr.self_times(name));
    m.add("data.ingest_s", med("data.ingest"), "s");
    m.add("lofd.open_s", med("lofd.open"), "s");
    m.add("index.build_s", med("index.build"), "s");
    m.add("spill.build_s", med("spill.build"), "s");
    m.add("spill.lof_range_s", med("spill.lof_range"), "s");
    m.add("spill.build_one_segment_s", med("spill.build_one_segment"), "s");
    m.add("spill.segments", segments as f64, "count");
    m.add("spill.reloads", stats.segment_reloads as f64, "count");
    m.add("spill.reloads_per_segment", stats.segment_reloads as f64 / segments as f64, "count");
    // What the `core.ooc.segment_reloads` registry counter added during
    // the same job: it re-adds the table's cumulative count at every
    // publish point, so it overstates `spill.reloads` (see README).
    m.add("spill.registry_reloads", registry as f64, "count");
    coverage_metrics(out, &tr, "ooc-spill", &untraced);
    check_range_scores(out, ctx, points, &scores);
    write_spans(ctx, &tr, "ooc-spill")
}
