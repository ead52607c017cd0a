//! The `serve-open` workload: a `lof serve` child process on loopback TCP
//! with one scoring worker and two tenants on the server's default window
//! settings, one connection each. An open-loop phase sends events on a
//! fixed schedule, times each from when it was sent to its score record,
//! and records how late each send left. The traced run adds a closed-loop
//! phase that keeps a fixed number of events in flight per connection to
//! measure the ceiling. One client thread drives both connections.
//!
//! An operation is one event. An event that gets no reply, an error
//! record or a reply out of order counts as failed.

use crate::gen::{self, event_line, EventStream};
use crate::reference::{close, Reference};
use crate::report::{median, peak_rss_mb, percentile, spread_line, timed_setup, Outcome};
use crate::trace::Tracer;
use crate::Ctx;
use lof_core::Euclidean;
use lof_stream::{SlidingWindowLof, StreamConfig};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const TENANTS: usize = 2;
/// The server's default window (`lof serve` without window flags).
const MIN_PTS: usize = 10;
const CAPACITY: usize = 512;
/// Events per tenant sent closed-loop during set-up, so the measured
/// phases start on full windows.
const WARMUP_EVENTS: usize = 600;
/// Scoring worker threads of the server. With one, the server's busy
/// threads (event loop and worker) and the client's one thread fit the
/// two cores this was tuned on with the least time-sharing between them.
const WORKERS: &str = "1";
/// Open-loop offered rate per tenant (events/s): 2,000/s in all, under a
/// tenth of the closed-loop ceiling on a quiet 2-vCPU box (see README).
/// At a third of it, a busy process on the other core raised the p50
/// elevenfold by queueing; at this rate the same load left it in place.
const OPEN_RATE: f64 = 1_000.0;
/// Open-loop latency quantiles are taken per window of this many
/// seconds of due times.
const WINDOW_S: f64 = 1.0;
/// Closed loop: events per tenant per round, and events in flight per
/// connection. A deep pipeline keeps the worker busy between wake-ups,
/// so a round's time is scoring work, not thread hand-offs; two
/// connections' worth fill the worker's default queue bound (1,024)
/// without going over it.
const CLOSED_BLOCK: usize = 2_000;
const PIPELINE: usize = 512;
/// Sampled events checked against the reference, per run.
const SAMPLE_EVENTS: usize = 120;
const SCORE_TOL: f64 = 1e-9;
/// Longest wait for a reply before an event counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

// ---- the server child ---------------------------------------------------

/// A running `lof serve`; killed and reaped on drop if not drained.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Starts the server on an ephemeral loopback port. Its stderr goes
    /// to `log`, where it reports the address it bound.
    fn start(lof: &str, log: &Path) -> Result<Server, String> {
        let file =
            File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let child = Command::new(lof)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers", WORKERS])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(file)
            .spawn()
            .map_err(|e| format!("cannot start '{lof} serve': {e}"))?;
        let mut server = Server { child, addr: String::new() };
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while Instant::now() < deadline {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // Whole lines only: the server may write its line in pieces.
            let whole = &text[..text.rfind('\n').map_or(0, |end| end + 1)];
            let addr = whole
                .lines()
                .find_map(|l| l.strip_prefix("listening on "))
                .and_then(|rest| rest.split(' ').next());
            if let Some(addr) = addr {
                server.addr = addr.to_owned();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("'{lof} serve' exited with {status}: {}", text.trim()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err(format!("'{lof} serve' did not report its address"))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `DRAIN` and waits for the process to exit.
    fn drain(mut self) -> Result<(), String> {
        let mut conn = TcpStream::connect(&self.addr).map_err(|e| format!("drain connect: {e}"))?;
        conn.write_all(b"DRAIN\n").map_err(|e| format!("drain: {e}"))?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status} after DRAIN"))
                };
            }
            if Instant::now() > deadline {
                return Err("server did not exit after DRAIN".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---- one tenant's connection ----------------------------------------------

/// A reply to one event.
enum Reply {
    Score { seq: u64, lof: Option<f64> },
    Error(String),
}

fn parse_reply(line: &str) -> Reply {
    let field = |key: &str| {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_owned())
    };
    if !line.starts_with("{\"type\":\"score\"") {
        return Reply::Error(line.to_owned());
    }
    let seq = field("\"seq\":").and_then(|s| s.parse().ok());
    // Non-finite scores travel as JSON strings (see `lof_stream::wire`).
    let lof = match field("\"lof\":").as_deref() {
        Some("null") => Some(None),
        Some("\"inf\"") => Some(Some(f64::INFINITY)),
        Some("\"-inf\"") => Some(Some(f64::NEG_INFINITY)),
        Some("\"nan\"") => Some(Some(f64::NAN)),
        Some(v) => v.parse().ok().map(Some),
        None => None,
    };
    match (seq, lof) {
        (Some(seq), Some(lof)) => Reply::Score { seq, lof },
        _ => Reply::Error(line.to_owned()),
    }
}

struct Tenant {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    events: EventStream,
    /// Every point sent, in order: the tenant's stream.
    history: Vec<[f64; 4]>,
    /// The score each event got (`None` while unanswered or warming up).
    scores: Vec<Option<f64>>,
    /// Sent and not yet answered: (event index, when it was due, when it
    /// was queued for sending).
    pending: VecDeque<(usize, Instant, Instant)>,
}

impl Tenant {
    fn connect(addr: &str, name: &str, seed: u64) -> Result<Tenant, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
        let hello = format!("TENANT CREATE {name}\nTENANT ATTACH {name}\n");
        stream.write_all(hello.as_bytes()).map_err(|e| format!("tenant set-up: {e}"))?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).map_err(|e| format!("tenant set-up reply: {e}"))?;
            if !line.starts_with("{\"type\":\"ok\"") {
                return Err(format!("tenant set-up refused: {}", line.trim()));
            }
        }
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Tenant {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            events: EventStream::new(seed),
            history: Vec::new(),
            scores: Vec::new(),
            pending: VecDeque::new(),
        })
    }

    /// Queues the tenant's next event, due at `due`.
    fn queue_event(&mut self, due: Instant) {
        let p = self.events.next_point();
        self.wbuf.extend_from_slice(event_line(&p).as_bytes());
        self.pending.push_back((self.history.len(), due, Instant::now()));
        self.history.push(p);
        self.scores.push(None);
    }

    fn flush(&mut self) -> Result<(), String> {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err("server closed the connection".to_owned()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Reads every reply available now. Returns (event index, due time,
    /// send time, reply) per complete line.
    fn read_replies(&mut self) -> Result<Vec<(usize, Instant, Instant, Reply)>, String> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_owned()),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        let mut replies = Vec::new();
        while let Some(end) = self.rbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.rbuf.drain(..=end).collect();
            let line = String::from_utf8_lossy(&line).trim().to_owned();
            let Some((idx, due, sent)) = self.pending.pop_front() else {
                return Err(format!("reply without a request: {line}"));
            };
            replies.push((idx, due, sent, parse_reply(&line)));
        }
        Ok(replies)
    }
}

// ---- the load generator ---------------------------------------------------

/// How the load generator schedules sends.
#[derive(Clone, Copy)]
enum Load {
    /// `count` events per tenant at `rate` events/s each, on a fixed
    /// schedule that does not wait for replies.
    Open { count: usize, rate: f64 },
    /// `count` events per tenant, at most `depth` in flight each.
    Closed { count: usize, depth: usize },
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    /// Per answered event: reply time minus send time, seconds. How late
    /// the sends left is `late_s`; on one CPU shared with the server, the
    /// client waking from idle for its next send is host noise, not the
    /// server's.
    latency_s: Vec<f64>,
    /// Per answered event: when it was due, seconds into the phase.
    due_s: Vec<f64>,
    /// Per sent event (open loop): send time minus due time, seconds.
    late_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    elapsed_s: f64,
}

/// Waits until a socket is readable (or writable, while it has unsent
/// bytes) or until `timeout` passes.
#[cfg(target_os = "linux")]
fn wait_ready(tenants: &[Tenant], timeout: Duration) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, mask: *const u8) -> i32;
    }
    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    let mut fds: Vec<PollFd> = tenants
        .iter()
        .map(|t| PollFd {
            fd: t.stream.as_raw_fd(),
            events: if t.wbuf.is_empty() { POLLIN } else { POLLIN | POLLOUT },
            revents: 0,
        })
        .collect();
    let ts =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout records (`#[repr(C)]`, int + short + short);
    // `ts` is a valid `struct timespec` (64-bit time_t and long on the
    // 64-bit Linux targets this builds for) that outlives the call; a
    // null signal mask is allowed and leaves the mask unchanged. An error
    // return (EINTR) only means the wait ended early, which the caller's
    // loop tolerates.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// Asks for 1 ns timer slack on the client thread (the Linux default is
/// 50 µs), so open-loop sends leave close to when they are due. This
/// changes only this thread's own timers.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument, passed
    // here as a u64 (unsigned long on 64-bit Linux); it only sets a
    // field of the calling thread and touches no memory of ours. A
    // failure leaves the default slack, which is harmless.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// Restricts the calling thread, and the server and threads it starts
/// from now on, to the first CPU it may run on. Then every hand-off
/// between client, event loop and worker is a wake-up on the same CPU:
/// across CPUs, each one waits on the other CPU leaving idle, and how
/// long that takes on a shared host moved the open-loop p50 between runs
/// from 0.10 to 0.45 ms. Pinned, ten 35 s runs read 0.110-0.126 ms. A
/// failure leaves the thread unpinned.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a 1024-bit `cpu_set_t` of exactly the size
    // passed; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(word) = mask.iter().position(|w| *w != 0) else { return };
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: as above; `one` names a CPU the thread may already use.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

#[cfg(not(target_os = "linux"))]
fn wait_ready(_tenants: &[Tenant], timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_micros(50)));
}

/// Quantile `q` of the open-loop latencies of each `WINDOW_S` window of
/// due times (windows with under half the offered events are dropped),
/// and the median of those: a burst of host interference that stalls a few
/// windows moves it far less than it moves one quantile over the phase.
fn windowed(phase: &Phase, q: f64) -> f64 {
    let last = phase.due_s.iter().fold(0.0f64, |m, d| m.max(*d));
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); (last / WINDOW_S) as usize + 1];
    for (due, lat) in phase.due_s.iter().zip(&phase.latency_s) {
        buckets[(due / WINDOW_S) as usize].push(*lat);
    }
    let least = (OPEN_RATE * TENANTS as f64 * WINDOW_S / 2.0) as usize;
    let per_window: Vec<f64> =
        buckets.iter().filter(|b| b.len() >= least).map(|b| percentile(b, q)).collect();
    if per_window.is_empty() {
        percentile(&phase.latency_s, q)
    } else {
        median(&per_window)
    }
}

/// Drives every tenant through one phase and records each reply.
fn drive(tenants: &mut [Tenant], load: Load) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let count = match load {
        Load::Open { count, .. } | Load::Closed { count, .. } => count,
    };
    let mut sent = vec![0usize; tenants.len()];
    let mut answered = vec![0usize; tenants.len()];
    let spacing = tenants.len() as f64;
    let mut last_progress = start;
    let result = (|| -> Result<(), String> {
        loop {
            let now = Instant::now();
            let mut next_due: Option<Instant> = None;
            for (t, tenant) in tenants.iter_mut().enumerate() {
                let mut queued_dues = Vec::new();
                match load {
                    Load::Open { rate, .. } => {
                        // Tenants are offset by a fraction of the interval
                        // so their sends interleave.
                        let offset = t as f64 / (rate * spacing);
                        while sent[t] < count {
                            let due =
                                start + Duration::from_secs_f64(sent[t] as f64 / rate + offset);
                            if due > now {
                                next_due = Some(next_due.map_or(due, |d| d.min(due)));
                                break;
                            }
                            tenant.queue_event(due);
                            queued_dues.push(due);
                            sent[t] += 1;
                        }
                    }
                    Load::Closed { depth, .. } => {
                        while sent[t] < count && tenant.pending.len() < depth {
                            tenant.queue_event(now);
                            sent[t] += 1;
                        }
                    }
                }
                tenant.flush()?;
                let flushed = Instant::now();
                phase.late_s.extend(queued_dues.iter().map(|due| (flushed - *due).as_secs_f64()));
            }
            let done = tenants
                .iter()
                .enumerate()
                .all(|(t, tenant)| sent[t] == count && tenant.pending.is_empty());
            if done {
                return Ok(());
            }
            let timeout = match next_due {
                Some(due) => due.saturating_duration_since(Instant::now()),
                None => Duration::from_millis(20),
            };
            wait_ready(tenants, timeout);
            let received = Instant::now();
            for tenant_id in 0..tenants.len() {
                let tenant = &mut tenants[tenant_id];
                for (idx, due, sent_at, reply) in tenant.read_replies()? {
                    answered[tenant_id] += 1;
                    last_progress = received;
                    phase.attempted += 1;
                    match reply {
                        Reply::Score { seq, lof } if seq == idx as u64 => {
                            tenant.scores[idx] = lof;
                            phase.latency_s.push((received - sent_at).as_secs_f64());
                            phase.due_s.push((due - start).as_secs_f64());
                        }
                        Reply::Score { seq, .. } => {
                            phase.failed += 1;
                            phase.errors.push(format!("event {idx} answered with seq {seq}"));
                        }
                        Reply::Error(line) => {
                            phase.failed += 1;
                            phase.errors.push(format!("event {idx} answered {line}"));
                        }
                    }
                }
            }
            if received - last_progress > REPLY_TIMEOUT {
                return Err("no reply for too long".to_owned());
            }
        }
    })();
    if let Err(e) = result {
        phase.errors.push(e);
    }
    // Whatever was sent and not answered is lost.
    for (t, tenant) in tenants.iter_mut().enumerate() {
        let lost = (sent[t] - answered[t]) as u64;
        phase.attempted += lost;
        phase.failed += lost;
        tenant.pending.clear();
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

// ---- the workload -----------------------------------------------------------

/// A server with its tenants connected and warmed up.
struct Rig {
    server: Server,
    tenants: Vec<Tenant>,
}

fn tenant_seed(ctx: &Ctx, t: usize) -> u64 {
    gen::workload_seed(ctx.workload_seed, &format!("tenant{t}"))
}

fn fold_phase(out: &mut Outcome, phase: &Phase) {
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    out.errors.extend(phase.errors.iter().take(5).cloned());
}

/// Server start, tenant creation and warm-up.
fn set_up(ctx: &Ctx, out: &mut Outcome, n: usize) -> Result<Rig, String> {
    let server = Server::start(&ctx.lof, &ctx.work.join(format!("serve-{n}.log")))?;
    let mut tenants = (0..TENANTS)
        .map(|i| Tenant::connect(&server.addr, &format!("t{i}"), tenant_seed(ctx, i)))
        .collect::<Result<Vec<_>, _>>()?;
    let warm = drive(&mut tenants, Load::Closed { count: WARMUP_EVENTS, depth: PIPELINE });
    fold_phase(out, &warm);
    Ok(Rig { server, tenants })
}

/// The open loop for `seconds` of due times.
fn open_load(seconds: f64) -> Load {
    let count = (OPEN_RATE * seconds).round().max(1.0) as usize;
    Load::Open { count, rate: OPEN_RATE }
}

pub fn serve_open(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    tighten_timer_slack();
    pin_to_one_cpu();
    if ctx.trace {
        return serve_traced(ctx, out);
    }
    // Each earlier rig is dropped, which stops its server, before the
    // next set-up starts.
    let mut n = 0;
    let (setup_s, Rig { server, mut tenants }) = timed_setup(|| {
        n += 1;
        set_up(ctx, out, n)
    })?;
    let open = drive(&mut tenants, open_load(ctx.seconds));
    fold_phase(out, &open);
    let rss_mb = peak_rss_mb(&server.pid())?;
    server.drain()?;
    if open.latency_s.is_empty() {
        return Err("the open-loop phase got no replies".to_owned());
    }
    let m = &mut out.metrics;
    m.add("setup_s", setup_s, "s");
    m.add("latency_ms", windowed(&open, 0.5) * 1e3, "ms");
    m.add("rss_peak_mb", rss_mb, "MB");
    check_scores(ctx, out, &tenants);
    Ok(())
}

/// Closed-loop rounds until `seconds` have passed (at least one); returns
/// each round's time.
fn closed_rounds(out: &mut Outcome, tenants: &mut [Tenant], seconds: f64) -> Vec<f64> {
    let start = Instant::now();
    let mut round_times = Vec::new();
    while round_times.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let round = drive(tenants, Load::Closed { count: CLOSED_BLOCK, depth: PIPELINE });
        fold_phase(out, &round);
        round_times.push(round.elapsed_s);
    }
    eprintln!("perfbench: {}", spread_line("closed-loop round s", &round_times));
    round_times
}

/// A sample of events (half of them planted outliers), each checked
/// against the reference LOF of that event over its tenant's window at
/// that moment: the last `CAPACITY` events of the stream, itself
/// included.
fn check_scores(ctx: &Ctx, out: &mut Outcome, tenants: &[Tenant]) {
    let mut rng = gen::Rng::new(ctx.workload_seed ^ 0x73_6572_7665);
    for i in 0..SAMPLE_EVENTS {
        let tenant = &tenants[i % tenants.len()];
        let len = tenant.history.len();
        if len <= WARMUP_EVENTS {
            out.errors.push("too few events to sample".to_owned());
            return;
        }
        let mut idx = WARMUP_EVENTS + rng.below(len - WARMUP_EVENTS);
        if i % 4 < 2 {
            // Step back to the nearest planted outlier (one in every 100).
            while idx > WARMUP_EVENTS && !tenant.events.is_planted(idx as u64) {
                idx -= 1;
            }
        }
        let Some(got) = tenant.scores[idx] else {
            out.errors.push(format!("event {idx} has no score"));
            continue;
        };
        let window: Vec<f64> =
            tenant.history[idx + 1 - CAPACITY..=idx].iter().flatten().copied().collect();
        let want = Reference::new(&window, 4, MIN_PTS).lof(CAPACITY - 1, MIN_PTS);
        if !close(got, want, SCORE_TOL) {
            out.errors.push(format!("event {idx}: server {got} vs reference {want}"));
        }
    }
}

/// Sums the per-tenant `serve.score_records` counters from an in-band
/// `GET /metrics` scrape (Prometheus text, terminated by `# EOF`).
fn scrape_scored(addr: &str) -> Result<f64, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
    conn.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
    conn.write_all(b"GET /metrics\n").map_err(|e| format!("scrape: {e}"))?;
    let mut total = 0.0;
    for line in BufReader::new(conn).lines() {
        let line = line.map_err(|e| format!("scrape read: {e}"))?;
        if line == "# EOF" {
            return Ok(total);
        }
        if line.starts_with("lof_serve_score_records{") {
            let value = line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok());
            total += value.ok_or_else(|| format!("unparsable metrics line '{line}'"))?;
        }
    }
    Err("metrics scrape ended before # EOF".to_owned())
}

fn serve_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut tr = Tracer::new();
    let log = ctx.work.join("serve-trace.log");
    let server = tr.span("server.start", |_| Server::start(&ctx.lof, &log))?;
    let mut tenants = tr.span("tenant.create", |_| {
        (0..TENANTS)
            .map(|i| Tenant::connect(&server.addr, &format!("t{i}"), tenant_seed(ctx, i)))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let warm = tr.span("warmup", |_| {
        drive(&mut tenants, Load::Closed { count: WARMUP_EVENTS, depth: PIPELINE })
    });
    fold_phase(out, &warm);
    let open = tr.span("open_loop", |_| drive(&mut tenants, open_load(ctx.seconds / 2.0)));
    fold_phase(out, &open);
    let rounds = tr.span("closed_loop", |_| closed_rounds(out, &mut tenants, ctx.seconds / 2.0));
    let scored = tr.span("metrics.scrape", |_| scrape_scored(&server.addr))?;
    // The server's per-tenant score-record counters must account for
    // every event the tenants were sent.
    let sent: usize = tenants.iter().map(|t| t.history.len()).sum();
    if scored != sent as f64 {
        out.errors.push(format!("metrics report {scored} score records for {sent} events"));
    }
    server.drain()?;
    if open.latency_s.is_empty() {
        return Err("the open-loop phase got no replies".to_owned());
    }

    // Replay each tenant's stream in-process through the same window the
    // server runs, timing the pushes of the open-loop events.
    let mut push_s = Vec::new();
    tr.span("stream.replay", |_| -> Result<(), String> {
        for tenant in &tenants {
            let config = StreamConfig::new(MIN_PTS, CAPACITY);
            let mut window = SlidingWindowLof::new(config, Euclidean).map_err(|e| e.to_string())?;
            for (idx, p) in tenant.history.iter().enumerate() {
                let t = Instant::now();
                let event = window.push(p).map_err(|e| e.to_string())?;
                if idx >= WARMUP_EVENTS {
                    push_s.push(t.elapsed().as_secs_f64());
                }
                let same = match (event.score, tenant.scores[idx]) {
                    (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                    (None, None) => true,
                    _ => false,
                };
                if !same {
                    out.errors.push(format!("event {idx}: in-process replay scored differently"));
                }
            }
        }
        Ok(())
    })?;
    let push_p50_us = median(&push_s) * 1e6;
    let m = &mut out.metrics;
    m.add("stream.push_us_p50", push_p50_us, "us");
    m.add("stream.push_us_p99", percentile(&push_s, 0.99) * 1e6, "us");
    m.add("stream.push_eps", push_s.len() as f64 / push_s.iter().sum::<f64>(), "1/s");
    m.add("serve.overhead_us_p50", windowed(&open, 0.5) * 1e6 - push_p50_us, "us");
    m.add("latency_p90_ms", windowed(&open, 0.9) * 1e3, "ms");
    m.add("latency_p99_ms", windowed(&open, 0.99) * 1e3, "ms");
    m.add("serve.scored", scored, "count");
    m.add("closed.events_per_s", (TENANTS * CLOSED_BLOCK) as f64 / median(&rounds), "1/s");
    m.add("client.late_ms_p99", percentile(&open.late_s, 0.99) * 1e3, "ms");
    check_scores(ctx, out, &tenants);
    let path = ctx.spans_dir.join(format!("serve-open-seed{}.jsonl", ctx.seed));
    tr.write(&path).map_err(|e| format!("cannot write spans to {}: {e}", path.display()))
}
