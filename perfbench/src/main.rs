//! One workload of the LOF benchmark per process. `run.py` builds this
//! binary and the `lof` CLI, then calls
//!
//! ```text
//! perfbench <workload> --seed N --seconds S --trace 0|1 --work DIR --spans DIR --lof PATH
//! ```
//!
//! It prints an environment fingerprint line, then, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Untraced runs report the end-to-end metrics; traced runs report the
//! per-layer metrics (`run.py` puts the workload's name in front).

mod batch;
mod gen;
mod reference;
mod report;
mod serve;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    /// The seed the workload's inputs are drawn from (mixed from `seed`
    /// and the workload name).
    pub workload_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for inputs, `.lofd` files and spill segments.
    pub work: PathBuf,
    /// Where traced runs write their spans.
    pub spans_dir: PathBuf,
    /// The `lof` binary, for `serve-open`.
    pub lof: String,
    /// Threads the reference check may use.
    pub threads: usize,
}

const WORKLOADS: [&str; 4] = ["batch-range", "topn-lattice", "ooc-spill", "serve-open"];

fn parse(args: &[String]) -> Result<(String, Ctx), String> {
    let workload = args.first().ok_or("missing workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (expected one of {WORKLOADS:?})"));
    }
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut work = None;
    let mut spans = None;
    let mut lof = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("bad --seconds: {e}"))?);
            }
            "--trace" => trace = value == "1",
            "--work" => work = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            "--lof" => lof = Some(value.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let seed: u64 = seed.ok_or("missing --seed")?;
    let seconds = seconds.filter(|s| *s > 0.0).ok_or("missing or non-positive --seconds")?;
    let ctx = Ctx {
        seed,
        workload_seed: gen::workload_seed(seed, &workload),
        seconds,
        trace,
        work: work.ok_or("missing --work")?,
        spans_dir: spans.ok_or("missing --spans")?,
        lof: lof.ok_or("missing --lof")?,
        threads: lof_cli::default_threads(),
    };
    Ok((workload, ctx))
}

fn threads_of(workload: &str) -> String {
    let all = lof_cli::default_threads();
    match workload {
        "batch-range" => format!("1 (traced run: also {all}, the CLI default, outside the job)"),
        "topn-lattice" => "1".to_owned(),
        "ooc-spill" => "1 (the spilled build and sweep are serial)".to_owned(),
        _ => "server: 1 scoring worker; client: 1 thread, 2 connections".to_owned(),
    }
}

fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    reference::self_test()?;
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("cannot create work dir: {e}"))?;
    std::fs::create_dir_all(&ctx.spans_dir).map_err(|e| format!("cannot create spans dir: {e}"))?;
    let mut out = Outcome::default();
    let result = match workload {
        "batch-range" => batch::batch_range(ctx, &mut out),
        "topn-lattice" => batch::topn_lattice(ctx, &mut out),
        "ooc-spill" => batch::ooc_spill(ctx, &mut out),
        _ => serve::serve_open(ctx, &mut out),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    result.map(|()| out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The spilled path writes its segments under the system temp dir;
    // keep them inside the work directory.
    std::env::set_var("TMPDIR", &ctx.work);
    println!(
        "{}",
        report::fingerprint(&workload, ctx.seed, ctx.workload_seed, &threads_of(&workload))
    );
    match run(&workload, &ctx) {
        Ok(out) => {
            for e in out.errors.iter().take(10) {
                eprintln!("perfbench {workload}: check failed: {e}");
            }
            println!("{}", out.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
