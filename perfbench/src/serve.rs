//! The `serve_mix` workload: served traffic to a `kissc serve` child
//! process with a journaled cache.
//!
//! * Phase one is an open loop on one pipelined unix connection at a
//!   fixed Poisson rate well below capacity; each request's latency
//!   counts from the time it was due, so a stall also charges the
//!   requests queued behind it.
//! * Phase two is a closed loop, one connection per hardware thread,
//!   on the same mix and the same daemon, in several windows; the
//!   daemon's capacity is its fastest window's requests per second, as
//!   a neighbour's load on a shared host only ever slows a window.
//!
//! Each run starts several daemons in turn and runs both phases on
//! each. A daemon that has served the open loop sometimes runs the
//! closed loop much slower than its peers, so the run reports the mean
//! of the daemons' capacities, which such a daemon pulls down.
//!
//! About 90% of requests repeat a prefilled hot set (cache hits); the
//! rest are novel race checks (misses through queue, worker, check,
//! cache insert and journal append).

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use kiss_serve::{
    decode_response, fetch_metrics, ping, submit_batch, CacheStatus, Endpoint, Request, Response,
    ServeSnapshot,
};

use crate::gen::{self, MixStream, ServeEntry};
use crate::oracle::{self, Expect};
use crate::report::{host_ref_ms, median, metric, pct, peak_rss_mb, quantile, Outcome};

/// Open-loop arrival rate of phase one, requests per second.
pub const RATE: f64 = 200.0;
/// Share of the measured time given to phase one.
const PHASE_ONE_SHARE: f64 = 0.6;
/// Daemon starts whose median is `setup_s`.
const SETUP_REPS: usize = 11;
/// While the daemon does not answer yet, the client connects again
/// after this long, as a start-up script's wait loop would.
const CONNECT_RETRY: Duration = Duration::from_millis(5);
/// How long to wait for outstanding replies after the last send.
const DRAIN: Duration = Duration::from_secs(60);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// A `kissc serve` child; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
}

impl Daemon {
    fn spawn(kissc: &Path, dir: &Path) -> io::Result<Daemon> {
        let budget = kiss_drivers::table::default_budget();
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("daemon.log"))?;
        let child = Command::new(kissc)
            .current_dir(dir)
            .args(["serve", "--socket", "s.sock", "--cache-dir", "cache"])
            .args(["--max-steps", &budget.max_steps.to_string()])
            .args(["--max-states", &budget.max_states.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        Ok(Daemon { child })
    }

    /// Sends `status` through the client library's connect path,
    /// trying again every `CONNECT_RETRY` while the socket is not there
    /// or refuses; returns once the daemon answers.
    fn wait_ready(&mut self, socket: &Path) -> io::Result<()> {
        let endpoint = Endpoint::Unix(socket.to_path_buf());
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "daemon exited during start-up: {status}"
                )));
            }
            if let Ok(r) = ping(&endpoint, Duration::from_secs(5)) {
                if r.verdict == "ok" {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon did not answer status within 60 s"));
            }
            std::thread::sleep(CONNECT_RETRY);
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM, then wait for the drain; SIGKILL if it takes too long.
    fn terminate(mut self) -> io::Result<()> {
        // SAFETY: signals our own child, which has not been reaped.
        unsafe { kill(self.child.id() as i32, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon drained with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other(
            "daemon did not drain within 30 s of SIGTERM",
        ))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The daemon's verdict strings as oracle verdicts.
fn verdict_of(r: &Response) -> oracle::Verdict {
    match r.verdict.as_str() {
        "race" | "assertion" | "liveness" => oracle::Verdict::Error,
        "pass" => oracle::Verdict::NoError,
        "inconclusive" => oracle::Verdict::Inconclusive,
        _ => oracle::Verdict::Failed,
    }
}

fn request(id: String, entry: &ServeEntry) -> Request {
    Request::race(id, entry.source.as_str(), entry.race_spec.as_str())
}

/// Client-side tallies of one phase.
#[derive(Debug, Default, Clone)]
struct Tally {
    sent: u64,
    answered: u64,
    hits: u64,
    misses: u64,
    shed: u64,
    failed: u64,
    decided: u64,
    wrong: u64,
}

impl Tally {
    fn record(&mut self, expect: Expect, r: &Response) {
        self.answered += 1;
        match r.cache {
            CacheStatus::Hit => self.hits += 1,
            CacheStatus::Miss => self.misses += 1,
            CacheStatus::None => {}
        }
        if r.is_overloaded() {
            self.shed += 1;
        }
        let j = oracle::judge(expect, verdict_of(r), None);
        self.decided += u64::from(j.decided);
        self.wrong += u64::from(j.wrong);
        self.failed += u64::from(j.failed);
    }

    fn dropped(&self) -> u64 {
        self.sent - self.answered
    }

    fn merge(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.answered += o.answered;
        self.hits += o.hits;
        self.misses += o.misses;
        self.shed += o.shed;
        self.failed += o.failed;
        self.decided += o.decided;
        self.wrong += o.wrong;
    }
}

/// Does the daemon's accounting between two scrapes match the client's?
fn accounting_holds(before: &ServeSnapshot, after: &ServeSnapshot, t: &Tally) -> bool {
    let d = |f: fn(&ServeSnapshot) -> u64| f(after) - f(before);
    let (requests, hits, misses, shed) = (
        d(|s| s.requests),
        d(|s| s.hits),
        d(|s| s.misses),
        d(|s| s.shed),
    );
    let ok = requests == hits + misses + shed
        && requests == t.sent
        && hits == t.hits
        && misses == t.misses
        && shed == t.shed;
    if !ok {
        eprintln!(
            "serve_mix: accounting mismatch: daemon requests={requests} hits={hits} misses={misses} \
             shed={shed}; client {t:?}"
        );
    }
    ok
}

#[derive(Default)]
struct PhaseOne {
    tally: Tally,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

impl PhaseOne {
    fn merge(&mut self, part: PhaseOne) {
        self.tally.merge(&part.tally);
        self.latencies_ms.extend(part.latencies_ms);
        self.late_ms.extend(part.late_ms);
    }
}

/// Open loop: one pipelined connection, a writer sending on schedule
/// and a reader matching replies by id.
fn open_loop(socket: &Path, mix: &mut MixStream, seed: u64, seconds: f64) -> io::Result<PhaseOne> {
    let due: Vec<f64> = gen::arrivals(seed, RATE, seconds);
    let plan: Vec<(String, Expect)> = (0..due.len())
        .map(|i| {
            let (entry, _) = mix.next_entry();
            (request(format!("o{i}"), &entry).to_json(), entry.expect)
        })
        .collect();
    let conn = UnixStream::connect(socket)?;
    let reader = conn.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(50)))?;
    let sent = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let reader_thread = {
        let (sent, done) = (Arc::clone(&sent), Arc::clone(&done));
        std::thread::spawn(move || -> Vec<(usize, Instant, Response)> {
            let mut lines = BufReader::new(reader);
            let mut line = String::new();
            let mut got = Vec::new();
            let mut drain_deadline = None;
            loop {
                if done.load(Ordering::Acquire) {
                    if got.len() >= sent.load(Ordering::Acquire) {
                        return got;
                    }
                    let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                    if Instant::now() > deadline {
                        return got;
                    }
                }
                match lines.read_line(&mut line) {
                    Ok(0) => return got,
                    Ok(_) => {
                        let now = Instant::now();
                        if let Ok(r) = decode_response(line.trim_end()) {
                            if let Some(i) = r.id.strip_prefix('o').and_then(|s| s.parse().ok()) {
                                got.push((i, now, r));
                            }
                        }
                        line.clear();
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => return got,
                }
            }
        })
    };
    let mut writer = conn;
    let start = Instant::now() + Duration::from_millis(5);
    let mut late_ms = Vec::with_capacity(due.len());
    let mut due_at = Vec::with_capacity(due.len());
    for (offset, (json, _)) in due.iter().zip(&plan) {
        let at = start + Duration::from_secs_f64(*offset);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        late_ms.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
        due_at.push(at);
        let wrote = writer
            .write_all(json.as_bytes())
            .and_then(|_| writer.write_all(b"\n"));
        if wrote.is_err() {
            break;
        }
        sent.fetch_add(1, Ordering::Release);
    }
    let _ = writer.flush();
    done.store(true, Ordering::Release);
    let replies = reader_thread
        .join()
        .map_err(|_| io::Error::other("reader thread panicked"))?;
    let mut tally = Tally {
        sent: sent.load(Ordering::Acquire) as u64,
        ..Tally::default()
    };
    let mut latencies_ms = Vec::with_capacity(replies.len());
    for (i, at, r) in replies {
        tally.record(plan[i].1, &r);
        latencies_ms.push(at.saturating_duration_since(due_at[i]).as_secs_f64() * 1e3);
    }
    Ok(PhaseOne {
        tally,
        latencies_ms,
        late_ms,
    })
}

struct PhaseTwo {
    tally: Tally,
    rtt_hit_us: Vec<f64>,
    rtt_miss_us: Vec<f64>,
    /// Replies per second of each window.
    rates: Vec<f64>,
}

/// Daemons per run, in turn, each started from the journal the
/// previous one left and serving both phases.
const DAEMONS: usize = 4;
/// Phase two windows per daemon, each on fresh connections.
const WINDOWS: usize = 3;

impl PhaseTwo {
    fn new() -> PhaseTwo {
        PhaseTwo {
            tally: Tally::default(),
            rtt_hit_us: Vec::new(),
            rtt_miss_us: Vec::new(),
            rates: Vec::new(),
        }
    }

    fn merge(&mut self, part: PhaseTwo) {
        self.tally.merge(&part.tally);
        self.rtt_hit_us.extend(part.rtt_hit_us);
        self.rtt_miss_us.extend(part.rtt_miss_us);
        self.rates.extend(part.rates);
    }
}

/// One closed-loop client: waits until the daemon has accepted its
/// connection (a `status` exchange), then keeps one request in flight
/// until `window` has passed since the common start.
fn client(
    socket: &Path,
    mix: &Mutex<MixStream>,
    start: &Barrier,
    window: Duration,
    tag: &str,
) -> io::Result<PhaseTwo> {
    let conn = UnixStream::connect(socket);
    let warm = conn.and_then(|conn| {
        conn.set_read_timeout(Some(DRAIN))?;
        let mut lines = BufReader::new(conn.try_clone()?);
        let mut writer = conn;
        writeln!(
            writer,
            "{}",
            Request::status(format!("{tag}-warm")).to_json()
        )?;
        let mut line = String::new();
        lines.read_line(&mut line)?;
        Ok((lines, writer))
    });
    // Every client reaches the barrier, even one that failed to connect.
    start.wait();
    let (mut lines, mut writer) = warm?;
    let end = Instant::now() + window;
    let mut out = PhaseTwo::new();
    let mut line = String::new();
    let mut k = 0u64;
    while Instant::now() < end {
        let (entry, _) = mix.lock().expect("mix lock").next_entry();
        let json = request(format!("{tag}-{k}"), &entry).to_json();
        k += 1;
        let t0 = Instant::now();
        writer.write_all(json.as_bytes())?;
        writer.write_all(b"\n")?;
        out.tally.sent += 1;
        line.clear();
        if lines.read_line(&mut line)? == 0 {
            break;
        }
        let rtt = t0.elapsed().as_secs_f64() * 1e6;
        let Ok(r) = decode_response(line.trim_end()) else {
            continue;
        };
        match r.cache {
            CacheStatus::Hit => out.rtt_hit_us.push(rtt),
            CacheStatus::Miss => out.rtt_miss_us.push(rtt),
            CacheStatus::None => {}
        }
        out.tally.record(entry.expect, &r);
    }
    Ok(out)
}

/// Closed loop: `clients` connections, one request in flight each, in
/// `windows` windows of `window` that each open fresh connections.
fn closed_loop(
    socket: &Path,
    mix: &Arc<Mutex<MixStream>>,
    clients: usize,
    window: Duration,
    windows: usize,
) -> io::Result<PhaseTwo> {
    let mut total = PhaseTwo::new();
    for w in 0..windows {
        let start = Arc::new(Barrier::new(clients + 1));
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (mix, start, socket) =
                    (Arc::clone(mix), Arc::clone(&start), socket.to_path_buf());
                std::thread::spawn(move || {
                    client(&socket, &mix, &start, window, &format!("w{w}c{c}"))
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let mut answered = 0;
        for h in handles {
            let part = h
                .join()
                .map_err(|_| io::Error::other("client thread panicked"))??;
            answered += part.tally.answered;
            total.merge(part);
        }
        total
            .rates
            .push(answered as f64 / t0.elapsed().as_secs_f64());
    }
    Ok(total)
}

/// Daemon-side layer counters summed over the daemons of one run.
#[derive(Debug, Default)]
struct ServeLayers {
    queue_peak: u64,
    admission_waits: u64,
    shard_acquires: u64,
    shard_contended: u64,
    journal_bytes: u64,
    compactions: u64,
    check: kiss_obs::Histogram,
}

impl ServeLayers {
    /// Adds a daemon's last snapshot (its counters start at zero).
    fn add(&mut self, snap: &ServeSnapshot) {
        self.queue_peak = self.queue_peak.max(snap.queue_peak);
        self.admission_waits += snap.admission_waits;
        self.shard_acquires += snap.shard_acquires;
        self.shard_contended += snap.shard_contended;
        self.journal_bytes = snap.journal_bytes;
        self.compactions += snap.compactions;
        if let Some((_, h)) = snap.latency.iter().find(|(name, _)| name == "check") {
            self.check.merge(h);
        }
    }
}

/// A fresh working directory for one run, inside the checkout.
fn work_dir() -> io::Result<PathBuf> {
    let dir = PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One `serve_mix` run. With `traced`, the result line carries the
/// per-layer metrics (scraped from the daemon's `metrics` op and timed
/// on the client) instead of the end-to-end ones.
pub fn run(kissc: &Path, seed: u64, seconds: f64, traced: bool) -> io::Result<Outcome> {
    // The daemon runs inside the work directory, so name it absolutely.
    let kissc = std::fs::canonicalize(kissc)?;
    let kissc = kissc.as_path();
    let dir = work_dir()?;
    let out = run_in(kissc, &dir, seed, seconds, traced);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn run_in(kissc: &Path, dir: &Path, seed: u64, seconds: f64, traced: bool) -> io::Result<Outcome> {
    let socket = dir.join("s.sock");
    let endpoint = Endpoint::Unix(socket.clone());
    let mix = MixStream::new(seed, gen::serve_corpus());

    // Prefill the hot set, so the measured daemons replay it from the
    // journal at start-up.
    let mut filler = Daemon::spawn(kissc, dir)?;
    filler.wait_ready(&socket)?;
    let hot: Vec<Request> = mix
        .hot()
        .iter()
        .enumerate()
        .map(|(i, e)| request(format!("h{i}"), e))
        .collect();
    let prefill = submit_batch(&endpoint, &hot)?;
    let mut prefill_wrong = 0;
    for (r, e) in prefill.responses.iter().zip(mix.hot()) {
        prefill_wrong += u64::from(oracle::judge(e.expect, verdict_of(r), None).wrong);
    }
    filler.terminate()?;

    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut d = Daemon::spawn(kissc, dir)?;
        d.wait_ready(&socket)?;
        setup.push(t0.elapsed().as_secs_f64());
        d.terminate()?;
    }

    let scrape = || fetch_metrics(&endpoint, Duration::from_secs(10));
    let clients = std::thread::available_parallelism().map_or(2, usize::from);
    let share = seconds / DAEMONS as f64;
    let window = Duration::from_secs_f64(share * (1.0 - PHASE_ONE_SHARE) / WINDOWS as f64);
    let mix = Arc::new(Mutex::new(mix));
    let mut one = PhaseOne::default();
    let mut two = PhaseTwo::new();
    let mut capacities = Vec::with_capacity(DAEMONS);
    let mut layers = ServeLayers::default();
    let mut accounted = true;
    let mut rss = 0.0f64;
    let mut host = vec![host_ref_ms()];
    for k in 0..DAEMONS {
        let mut daemon = Daemon::spawn(kissc, dir)?;
        daemon.wait_ready(&socket)?;
        let s0 = scrape()?;
        let arrivals_seed = seed ^ ((k as u64) << 32);
        let mut stream = mix.lock().expect("mix lock");
        let part_one = open_loop(&socket, &mut stream, arrivals_seed, share * PHASE_ONE_SHARE)?;
        drop(stream);
        let s1 = scrape()?;
        let part_two = closed_loop(&socket, &mix, clients, window, WINDOWS)?;
        let s2 = scrape()?;
        accounted &= accounting_holds(&s0, &s1, &part_one.tally);
        accounted &= accounting_holds(&s1, &s2, &part_two.tally);
        layers.add(&s2);
        capacities.push(part_two.rates.iter().copied().fold(0.0, f64::max));
        one.merge(part_one);
        two.merge(part_two);
        rss = rss.max(peak_rss_mb(Some(daemon.pid())));
        daemon.terminate()?;
        host.push(host_ref_ms());
    }

    let setup_s = median(&setup);
    let mut all = one.tally.clone();
    all.merge(&two.tally);
    let failed = all.failed + all.dropped();
    let mut lat = one.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    let (p50, p95, p99) = (
        quantile(&lat, 0.50),
        quantile(&lat, 0.95),
        quantile(&lat, 0.99),
    );
    let capacity = capacities.iter().sum::<f64>() / capacities.len() as f64;
    let decided = pct(all.decided as f64, all.answered as f64);
    let wrong = all.wrong + prefill_wrong;
    let mut detail = vec![
        metric("setup_s", setup_s, "s"),
        metric("req_p50_ms", p50, "ms"),
        metric("req_p95_ms", p95, "ms"),
        metric("req_p99_ms", p99, "ms"),
        metric("req_samples", lat.len() as f64, "count"),
        metric("open_loop_rate", RATE, "req/s"),
        metric("capacity_rps", capacity, "req/s"),
        metric(
            "capacity_min_rps",
            capacities.iter().copied().fold(f64::INFINITY, f64::min),
            "req/s",
        ),
        metric("closed_loop_clients", clients as f64, "count"),
        metric("decided_pct", decided, "%"),
        metric("wrong_verdicts", wrong as f64, "count"),
        metric("failed_pct", pct(failed as f64, all.sent as f64), "%"),
        metric("peak_rss_mb", rss, "MiB"),
        metric("host_ref_ms", median(&host), "ms"),
    ];
    let result = if traced {
        let mut late = one.late_ms.clone();
        late.sort_by(f64::total_cmp);
        let mut hit = two.rtt_hit_us.clone();
        hit.sort_by(f64::total_cmp);
        let mut miss = two.rtt_miss_us.clone();
        miss.sort_by(f64::total_cmp);
        let answered = (two.tally.hits + two.tally.misses) as f64;
        let layers = [
            metric("serve.rtt_hit_us", quantile(&hit, 0.5), "us"),
            metric("serve.rtt_miss_us", quantile(&miss, 0.5), "us"),
            metric("serve.hit_pct", pct(two.tally.hits as f64, answered), "%"),
            metric("serve.queue_peak", layers.queue_peak as f64, "count"),
            metric(
                "serve.admission_waits",
                layers.admission_waits as f64,
                "count",
            ),
            metric(
                "serve.shard_contended_pct",
                pct(layers.shard_contended as f64, layers.shard_acquires as f64),
                "%",
            ),
            metric("serve.journal_bytes", layers.journal_bytes as f64, "bytes"),
            metric("serve.compactions", layers.compactions as f64, "count"),
            metric(
                "serve.check_p50_ms",
                layers.check.quantile(50).unwrap_or(0) as f64,
                "ms",
            ),
            metric("loadgen.late_p99_ms", quantile(&late, 0.99), "ms"),
        ];
        let result = crate::per_layer(&layers);
        detail.extend(layers);
        result
    } else {
        crate::end_to_end(setup_s, capacity, p95, decided, rss)
    };
    Ok(Outcome {
        correct: wrong == 0 && accounted,
        attempted: all.sent,
        failed,
        detail,
        result,
    })
}
