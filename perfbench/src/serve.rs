//! The `serve-wide` and `serve-paced` workloads: `mcc serve` over
//! stdin/stdout pipes, and the traced replay of its loop.
//!
//! The request stream is built with the calls `mcc load` uses
//! (`load_events` + `request_line`), so the daemon receives only bytes.
//! One client process drives the daemon: a writer thread on its stdin
//! and a reader (the main thread) on its stdout — two threads.

use std::io::{BufRead, BufReader, LineWriter, Read, Write};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use mobile_cloud_cache::model::{CostModel, Json};
use mobile_cloud_cache::prelude::{
    factory, serve_lines, CommonParams, DaemonOptions, PoissonWorkload, ServeConfig, ServeEngine,
    ServeReply, SpeculativeCaching,
};
use mobile_cloud_cache::serve::wire::{
    bye_response, decision_response, error_response, parse_request, replayed_response,
    report_response, request_line, shed_response, stats_response, validate_response, WireRequest,
};
use mobile_cloud_cache::serve::EngineStats;
use mobile_cloud_cache::simnet::SimClock;
use mobile_cloud_cache::workloads::load_events;

use crate::mcc::{pin, unpin, Proc, Side};
use crate::stats::{median, quantile, quantile_u64, windowed_quantiles};
use crate::trace::Trace;
use crate::{metric, Args, Outcome};

/// A serve workload's shape.
pub struct Shape {
    /// Servers in the cluster (`--servers` of load and serve).
    servers: usize,
    /// Items in the stream (`mcc load --items`).
    items: usize,
    /// Requests per item (`mcc load --requests`).
    requests: usize,
    /// Open-loop arrival rate in requests/s; `None` writes as fast as
    /// the daemon accepts.
    rate: Option<f64>,
}

/// 65,536 tracked items, written at saturation.
pub const WIDE: Shape = Shape {
    servers: 8,
    items: 65_536,
    requests: 4,
    rate: None,
};

/// 64 hot items at a fixed 50,000 requests/s.
pub const PACED: Shape = Shape {
    servers: 8,
    items: 64,
    requests: 2048,
    rate: Some(50_000.0),
};

/// Latency windows per pass (each window reports its own p50 and p99).
const WINDOWS: usize = 128;
/// Bytes per write at saturation.
const CHUNK: usize = 4096;
/// Daemons spawned only to time set-up, besides one per pass, after
/// [`WARM_UPS`] untimed ones that bring the binary into the page cache.
const SETUP_PROBES: usize = 15;
/// Untimed set-up probes per run.
const WARM_UPS: usize = 2;
/// One request line in this many gets its spans kept in the trace.
const SPAN_SAMPLE: u64 = 64;

const STATS: &[u8] = b"{\"op\":\"stats\"}\n";
const TAIL: &[u8] = b"{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n";

/// The request bytes of one run: every request line, then a `finish`
/// per item.
struct Stream {
    bytes: Vec<u8>,
    /// End offset (past the newline) of each line.
    ends: Vec<usize>,
    /// Item of each request line.
    items: Vec<u64>,
    requests: usize,
}

impl Stream {
    fn build(shape: &Shape, seed: u64) -> Stream {
        let workload = PoissonWorkload::uniform(
            CommonParams {
                servers: shape.servers,
                requests: shape.requests,
                mu: 1.0,
                lambda: 1.0,
            },
            1.0,
        );
        let events = load_events(&workload, shape.items, seed);
        let mut s = Stream {
            bytes: Vec::with_capacity(events.len() * 64),
            ends: Vec::with_capacity(events.len() + shape.items),
            items: Vec::with_capacity(events.len()),
            requests: events.len(),
        };
        let push = |s: &mut Stream, req: WireRequest| {
            s.bytes
                .extend_from_slice(request_line(&req).to_string_compact().as_bytes());
            s.bytes.push(b'\n');
            s.ends.push(s.bytes.len());
        };
        for e in &events {
            s.items.push(e.item);
            push(
                &mut s,
                WireRequest::Req {
                    item: e.item,
                    server: e.server,
                    t: Some(e.t),
                },
            );
        }
        for item in 0..shape.items as u64 {
            push(&mut s, WireRequest::Finish { item });
        }
        s
    }

    fn lines(&self) -> usize {
        self.ends.len()
    }

    fn line(&self, k: usize) -> &[u8] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.bytes[start..self.ends[k]]
    }
}

fn config(shape: &Shape) -> Result<ServeConfig, String> {
    // `mcc serve` defaults: unit costs, 64k items, 1M copies.
    let cost = CostModel::new(1.0, 1.0).map_err(|e| e.to_string())?;
    Ok(ServeConfig::new(shape.servers, cost).with_bounds(1 << 16, 1 << 20))
}

fn ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What the writer did.
#[derive(Default)]
struct Sent {
    /// When the first byte was handed to the pipe, ns since the epoch.
    first_ns: u64,
    /// `(lines fully written, ns)` after each write at saturation.
    chunks: Vec<(usize, u64)>,
    /// Generator lateness (send − due) of each paced request, ns.
    late: Vec<u64>,
}

/// Due time of paced request `k`, ns since the epoch.
fn due_ns(rate: f64, k: usize) -> u64 {
    (k as f64 * 1e9 / rate) as u64
}

/// Sleeps while the due time is far, then yields until it arrives;
/// returns the time the wait ended.
fn wait_until(epoch: Instant, due: u64) -> u64 {
    loop {
        let now = ns(epoch);
        if now >= due {
            return now;
        }
        let left = due - now;
        if left > 300_000 {
            thread::sleep(Duration::from_nanos(left - 200_000));
        } else {
            thread::yield_now();
        }
    }
}

/// Writes all of `buf` to a non-blocking pipe, napping for [`NAP`]
/// while it is full. The writer never sleeps inside `write`, so the
/// daemon's reads never have to wake it on the other CPU.
fn write_polled<W: Write>(out: &mut W, buf: &[u8]) -> std::io::Result<()> {
    let mut done = 0;
    while done < buf.len() {
        match out.write(&buf[done..]) {
            Ok(n) => done += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(NAP),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes the stream to a non-blocking pipe: request lines at `rate`
/// (open loop, each on its own write) or as fast as the pipe accepts,
/// then the `finish` lines. `sent` counts request lines written.
fn write_stream<W: Write>(
    out: &mut W,
    stream: &Stream,
    rate: Option<f64>,
    epoch: Instant,
    sent: &AtomicUsize,
) -> std::io::Result<Sent> {
    let mut log = Sent {
        first_ns: ns(epoch),
        ..Sent::default()
    };
    let mut line = 0;
    if let Some(rate) = rate {
        log.late.reserve(stream.requests);
        for k in 0..stream.requests {
            let due = due_ns(rate, k);
            let now = wait_until(epoch, due);
            write_polled(out, stream.line(k))?;
            sent.store(k + 1, Ordering::Release);
            log.late.push(now - due);
        }
        line = stream.requests;
    }
    while line < stream.lines() {
        let start = if line == 0 { 0 } else { stream.ends[line - 1] };
        let mut end_line = line + 1;
        while end_line < stream.lines() && stream.ends[end_line] - start <= CHUNK {
            end_line += 1;
        }
        write_polled(out, &stream.bytes[start..stream.ends[end_line - 1]])?;
        log.chunks.push((end_line, ns(epoch)));
        sent.store(end_line.min(stream.requests), Ordering::Release);
        line = end_line;
    }
    Ok(log)
}

/// Time request line `k` was handed to the pipe: its due time when
/// paced, else the end of the write that held it.
fn send_times(stream: &Stream, rate: Option<f64>, log: &Sent) -> Vec<u64> {
    match rate {
        Some(rate) => (0..stream.requests).map(|k| due_ns(rate, k)).collect(),
        None => {
            let mut out = Vec::with_capacity(stream.requests);
            let mut c = 0;
            for k in 0..stream.requests {
                while log.chunks[c].0 <= k {
                    c += 1;
                }
                out.push(log.chunks[c].1);
            }
            out
        }
    }
}

extern "C" {
    fn fcntl(fd: i32, cmd: i32, ...) -> i32;
}

/// Switches `O_NONBLOCK` on or off for a pipe end.
fn set_nonblocking(fd: &impl AsRawFd, on: bool) {
    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    const O_NONBLOCK: i32 = 0o4000;
    let fd = fd.as_raw_fd();
    // SAFETY: plain flag queries and updates on a descriptor we own.
    unsafe {
        let flags = fcntl(fd, F_GETFL);
        if flags >= 0 {
            let flags = if on {
                flags | O_NONBLOCK
            } else {
                flags & !O_NONBLOCK
            };
            fcntl(fd, F_SETFL, flags);
        }
    }
}

/// How long the reader naps when the pipe is empty at saturation.
const NAP: Duration = Duration::from_micros(250);

/// Reads until `want` lines have arrived (or end of input) from a
/// non-blocking pipe. The reader never waits inside `read`: a reader
/// asleep in the kernel makes every response write pay a wake-up, whose
/// cost swings with where the scheduler placed it. When the pipe is
/// empty it yields at a fixed rate (to time each line to the
/// microsecond) or naps for [`NAP`] at saturation (a spinning reader
/// on the sibling CPU would slow the daemon down). Returns the bytes
/// and the time each line was seen, calling `each(k)` per line.
fn poll_lines<R: Read>(
    src: &mut R,
    want: usize,
    epoch: Instant,
    spin: bool,
    mut each: impl FnMut(usize),
) -> Result<(Vec<u8>, Vec<u64>), String> {
    let mut text = Vec::with_capacity(want.min(1 << 20) * 150);
    let mut line_ns = Vec::with_capacity(want.min(1 << 20));
    let mut chunk = vec![0u8; 1 << 16];
    while line_ns.len() < want {
        match src.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let t = ns(epoch);
                for _ in chunk[..n].iter().filter(|&&b| b == b'\n') {
                    each(line_ns.len());
                    line_ns.push(t);
                }
                text.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if spin {
                    thread::yield_now();
                } else {
                    thread::sleep(NAP);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    Ok((text, line_ns))
}

/// Mean of the first and last quarter of a series of outstanding
/// counts — whether the backlog grew over the run.
fn backlog_quarters(outstanding: &[u32]) -> (f64, f64) {
    let q = (outstanding.len() / 4).max(1);
    let mean = |s: &[u32]| s.iter().map(|&v| f64::from(v)).sum::<f64>() / s.len().max(1) as f64;
    (
        mean(&outstanding[..q.min(outstanding.len())]),
        mean(&outstanding[outstanding.len().saturating_sub(q)..]),
    )
}

fn kind(doc: &Json) -> &str {
    doc.get("kind").and_then(Json::as_str).unwrap_or("")
}

/// Compares two `stats` lines field by field (floats to the bit).
fn stats_match(got: &Json, want: &Json) -> Result<(), String> {
    let Json::Obj(fields) = want else {
        return Err("expected stats is not an object".into());
    };
    for (key, w) in fields {
        let g = got
            .get(key)
            .ok_or_else(|| format!("stats: missing {key}"))?;
        let same = match (g.as_f64(), w.as_f64()) {
            (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
            _ => g == w,
        };
        if !same {
            return Err(format!(
                "stats: {key} is {} but the in-process pass says {}",
                g.to_string_compact(),
                w.to_string_compact()
            ));
        }
    }
    Ok(())
}

/// Checks the response lines of one pass; returns the number of failed
/// request lines (missing, invalid, shed, error or for the wrong item).
fn check_responses(stream: &Stream, text: &str) -> u64 {
    let mut failed = 0u64;
    let mut lines = text.lines();
    for k in 0..stream.lines() {
        let ok = lines.next().is_some_and(|l| {
            let Ok(doc) = Json::parse(l) else {
                return false;
            };
            if validate_response(&doc).is_err() {
                return false;
            }
            if k < stream.requests {
                kind(&doc) == "decision"
                    && doc.get("item").and_then(Json::as_i64) == i64::try_from(stream.items[k]).ok()
            } else {
                kind(&doc) == "report"
            }
        });
        if !ok {
            failed += 1;
        }
    }
    failed
}

/// The engine stats an untimed in-process pass over the same bytes ends
/// with (the daemon's final `stats` line must match them).
fn in_process_stats(shape: &Shape, stream: &Stream) -> Result<EngineStats, String> {
    let mut engine = ServeEngine::new(config(shape)?, factory(SpeculativeCaching::paper()));
    let input = [stream.bytes.as_slice(), TAIL].concat();
    serve_lines(
        &mut engine,
        &SimClock::new(),
        input.as_slice(),
        &mut std::io::sink(),
        &DaemonOptions::default(),
    )?;
    Ok(engine.stats())
}

/// Spawns a daemon and times it to its answer to a first `stats`
/// probe; returns the seconds, the process and its pipes.
fn start_daemon(
    mcc: &Path,
    shape: &Shape,
) -> Result<
    (
        f64,
        Proc,
        std::process::ChildStdin,
        std::process::ChildStdout,
    ),
    String,
> {
    let spawned = Instant::now();
    let mut proc = Proc::spawn(
        Command::new(mcc)
            .args(["serve", "--servers", &shape.servers.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit()),
    )?;
    let mut stdin = proc.child.stdin.take().ok_or("no daemon stdin")?;
    let stdout = proc.child.stdout.take().ok_or("no daemon stdout")?;
    stdin
        .write_all(STATS)
        .map_err(|e| format!("probe write: {e}"))?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("probe read: {e}"))?;
    let setup = spawned.elapsed().as_secs_f64();
    let doc = Json::parse(line.trim()).map_err(|e| format!("probe answer: {e}"))?;
    if kind(&doc) != "stats" || !reader.buffer().is_empty() {
        return Err(format!("probe answered {line:?}"));
    }
    Ok((setup, proc, stdin, reader.into_inner()))
}

/// One daemon lifetime: probe, stream, final stats, shutdown.
struct DaemonPass {
    setup_s: f64,
    decisions_per_s: f64,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    latencies: Vec<u64>,
    rss_mb: f64,
    late: Vec<u64>,
    outstanding: Vec<u32>,
    failed: u64,
}

fn daemon_pass(
    mcc: &Path,
    shape: &Shape,
    stream: &Stream,
    want: &Json,
) -> Result<DaemonPass, String> {
    let (setup_s, mut proc, mut stdin, mut stdout) = start_daemon(mcc, shape)?;
    pin(proc.id(), Side::Server);
    pin(0, Side::Client);
    let total = stream.lines();
    let sent = AtomicUsize::new(0);
    let paced = shape.rate.is_some();
    let epoch = Instant::now();
    set_nonblocking(&stdin, true);
    set_nonblocking(&stdout, true);
    let (log, polled) = thread::scope(|s| {
        let writer = s.spawn(|| {
            pin(0, Side::Client);
            write_stream(&mut stdin, stream, shape.rate, epoch, &sent)
        });
        let mut outstanding = Vec::with_capacity(if paced { stream.requests } else { 0 });
        let polled = poll_lines(&mut stdout, total, epoch, paced, |k| {
            if paced && k < stream.requests {
                let out = sent.load(Ordering::Acquire).saturating_sub(k + 1);
                outstanding.push(u32::try_from(out).unwrap_or(u32::MAX));
            }
        });
        if polled.is_err() {
            // The writer may be blocked on a full pipe: end the daemon so
            // the write fails and the writer can be joined.
            let _ = proc.child.kill();
        }
        let log = writer.join().map_err(|_| "writer panicked".to_string());
        (log, polled.map(|(text, ns)| (text, ns, outstanding)))
    });
    let log = log?.map_err(|e| format!("write: {e}"))?;
    let (text, read_ns, outstanding) = polled?;
    let text = String::from_utf8_lossy(&text).into_owned();
    let rss_mb = crate::mcc::vm_hwm_mb(proc.id()).unwrap_or(f64::NAN);
    let _ = write_polled(&mut stdin, TAIL);
    drop(stdin);
    set_nonblocking(&stdout, false);
    let mut tail = String::new();
    let _ = stdout.read_to_string(&mut tail);
    let exit = proc.reap()?;
    unpin();

    let mut failed = check_responses(stream, &text);
    let mut tail_lines = tail.lines();
    let stats_ok = tail_lines
        .next()
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(|| "no final stats line".to_string())
        .and_then(|doc| stats_match(&doc, want));
    if let Err(e) = stats_ok {
        eprintln!("perfbench: {e}");
        failed += 1;
    }
    let bye = tail_lines.next().and_then(|l| Json::parse(l).ok());
    if bye.as_ref().map(kind) != Some("bye") {
        eprintln!("perfbench: no bye line");
        failed += 1;
    }
    let summary = tail_lines.next().unwrap_or("");
    let expect = format!(
        "{} decisions, 0 sheds, {} reports, 0 replays, 0 errors (shutdown)",
        stream.requests,
        total - stream.requests
    );
    if !summary.contains(&expect) {
        eprintln!("perfbench: daemon summary {summary:?}, want {expect:?}");
        failed += 1;
    }
    if exit.code != Some(0) {
        eprintln!("perfbench: daemon exited with {:?}", exit.code);
        failed += 1;
    }
    if read_ns.len() < total {
        return Ok(DaemonPass {
            setup_s,
            decisions_per_s: f64::NAN,
            p50_us: Vec::new(),
            p99_us: Vec::new(),
            latencies: Vec::new(),
            rss_mb,
            late: log.late,
            outstanding,
            failed: failed.max(1),
        });
    }

    let sends = send_times(stream, shape.rate, &log);
    let latencies: Vec<u64> = sends
        .iter()
        .zip(&read_ns)
        .map(|(s, r)| r.saturating_sub(*s))
        .collect();
    let to_us = |v: Vec<f64>| v.into_iter().map(|x| x / 1e3).collect::<Vec<_>>();
    let wall_s = (read_ns[total - 1] - log.first_ns) as f64 / 1e9;
    Ok(DaemonPass {
        setup_s,
        decisions_per_s: stream.requests as f64 / wall_s,
        p50_us: to_us(windowed_quantiles(&latencies, WINDOWS, 0.5)),
        p99_us: to_us(windowed_quantiles(&latencies, WINDOWS, 0.99)),
        latencies,
        rss_mb,
        late: log.late,
        outstanding,
        failed,
    })
}

/// Set-up time of a daemon that is shut down right after its probe.
fn probe_only(mcc: &Path, shape: &Shape) -> Result<f64, String> {
    let (setup, proc, mut stdin, mut stdout) = start_daemon(mcc, shape)?;
    let _ = stdin.write_all(b"{\"op\":\"shutdown\"}\n");
    drop(stdin);
    let _ = stdout.read_to_end(&mut Vec::new());
    let exit = proc.reap()?;
    if exit.code != Some(0) {
        return Err(format!("probe daemon exited with {:?}", exit.code));
    }
    Ok(setup)
}

/// `--trace 0`: the end-to-end metrics of `mcc serve` over pipes.
pub fn end_to_end(mcc: &Path, shape: &Shape, args: &Args) -> Result<Outcome, String> {
    let stream = Stream::build(shape, args.seed);
    let want = stats_response(&in_process_stats(shape, &stream)?);
    let mut setups = Vec::new();
    for i in 0..WARM_UPS + SETUP_PROBES {
        let setup = probe_only(mcc, shape)?;
        if i >= WARM_UPS {
            setups.push(setup);
        }
    }
    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        passes.push(daemon_pass(mcc, shape, &stream, &want)?);
        let used = start.elapsed().as_secs_f64();
        if used + t.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    setups.extend(passes.iter().map(|p| p.setup_s));
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let attempted = (passes.len() * stream.lines()) as u64;
    let per_pass = |f: fn(&DaemonPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let windows = |f: fn(&DaemonPass) -> &Vec<f64>| {
        median(
            &passes
                .iter()
                .flat_map(|p| f(p).iter().copied())
                .collect::<Vec<_>>(),
        )
    };

    // Tails are diagnostics, not metrics: on a shared two-CPU box they
    // are set by multi-millisecond host stalls, not by the daemon.
    let mut all: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.latencies.iter().copied())
        .collect();
    eprintln!(
        "perfbench: {} passes at {:?} decisions/s; latency p99 {:.1} us (median of windows), \
         p999 {:.1} us (all requests)",
        passes.len(),
        passes
            .iter()
            .map(|p| p.decisions_per_s.round())
            .collect::<Vec<_>>(),
        windows(|p| &p.p99_us),
        quantile_u64(&mut all, 0.999) / 1e3
    );
    if shape.rate.is_some() {
        let mut late: Vec<u64> = passes.iter().flat_map(|p| p.late.iter().copied()).collect();
        let (first, last) = backlog_quarters(&passes[passes.len() - 1].outstanding);
        eprintln!(
            "perfbench: generator late p50 {:.1} us p99 {:.1} us; outstanding responses \
             {first:.1} in the first quarter, {last:.1} in the last ({})",
            quantile_u64(&mut late, 0.5) / 1e3,
            quantile_u64(&mut late, 0.99) / 1e3,
            if last > 2.0 * first + 8.0 {
                "backlog grew"
            } else {
                "no backlog growth"
            }
        );
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", median(&setups), "s"),
            metric("peak_rss_mb", per_pass(|p| p.rss_mb), "MB"),
            metric("throughput_per_s", per_pass(|p| p.decisions_per_s), "1/s"),
            metric("latency_us", windows(|p| &p.p50_us), "us"),
        ],
    })
}

/// Per-layer totals of one replay, ns.
#[derive(Clone, Copy, Default)]
struct Layers {
    read: u64,
    parse: u64,
    sweep: u64,
    observe: u64,
    finish: u64,
    render: u64,
    write: u64,
}

impl Layers {
    fn sum(&self) -> u64 {
        self.read + self.parse + self.sweep + self.observe + self.finish + self.render + self.write
    }
}

/// One replay of the daemon loop.
struct Replay {
    wall_ns: u64,
    layers: Layers,
    flushes: u64,
    bytes_out: u64,
    stats: EngineStats,
    output: Vec<u8>,
    late: Vec<u64>,
    outstanding: Vec<u32>,
    trace: Option<Trace>,
}

/// Writes one response line the way the daemon does (`writeln!` through
/// a line-buffered writer, then `flush`); returns the bytes written.
fn emit<W: Write>(out: &mut W, line: &str) -> Result<u64, String> {
    writeln!(out, "{line}").map_err(|e| format!("write: {e}"))?;
    out.flush().map_err(|e| format!("flush: {e}"))?;
    Ok(line.len() as u64 + 1)
}

/// Replays `serve_lines` from its public calls — `read_line`,
/// `parse_request`, `ServeEngine::{tick, observe, finish}`, the wire
/// renderers and `writeln!` + `flush` — onto real pipes, fed by the same
/// writer as the daemon runs. With `TRACED` every call is timed and one
/// request line in [`SPAN_SAMPLE`] keeps its spans; without it no clock
/// is read inside the loop.
fn replay<const TRACED: bool>(shape: &Shape, stream: &Stream) -> Result<Replay, String> {
    let (in_r, mut in_w) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
    let (mut out_r, out_w) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
    let mut engine = ServeEngine::new(config(shape)?, factory(SpeculativeCaching::paper()));
    let sent = AtomicUsize::new(0);
    let mut trace = Trace::new();
    let epoch = Instant::now();
    let stamp = |tr: &Trace| if TRACED { tr.now() } else { 0 };

    thread::scope(|s| {
        let writer = s.spawn(|| {
            pin(0, Side::Client);
            set_nonblocking(&in_w, true);
            let log = write_stream(&mut in_w, stream, shape.rate, epoch, &sent)?;
            write_polled(&mut in_w, TAIL)?;
            drop(in_w);
            Ok::<_, std::io::Error>(log)
        });
        let drain = s.spawn(move || {
            pin(0, Side::Client);
            set_nonblocking(&out_r, true);
            poll_lines(&mut out_r, usize::MAX, epoch, shape.rate.is_some(), |_| {})
                .map(|(text, _)| text)
        });

        pin(0, Side::Server);
        let mut out = LineWriter::new(out_w);
        let mut lines = BufReader::new(in_r).lines();
        let mut layers = Layers::default();
        let (mut flushes, mut bytes_out) = (0u64, 0u64);
        let mut outstanding = Vec::new();
        let mut high_water = 0.0f64;
        let mut answered = 0usize;
        let mut id = 0u64;
        let start = Instant::now();
        let result: Result<(), String> = loop {
            let a = stamp(&trace);
            let next = lines.next();
            let b = stamp(&trace);
            layers.read += b - a;
            let line = match next {
                None => break Ok(()),
                Some(Err(e)) => break Err(format!("read: {e}")),
                Some(Ok(line)) => line,
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let parsed = parse_request(trimmed);
            let c = stamp(&trace);
            layers.parse += c - b;
            // (name, start, end) of each call after the parse.
            let mut calls: [(&'static str, u64, u64); 4] = [("", 0, 0); 4];
            let mut n = 0usize;
            let mut done = false;
            let rendered: Vec<String> = match parsed {
                Err(detail) => vec![error_response(&detail).to_string_compact()],
                Ok(WireRequest::Req { item, server, t }) => {
                    if shape.rate.is_some() {
                        let backlog = sent.load(Ordering::Acquire).saturating_sub(answered + 1);
                        outstanding.push(u32::try_from(backlog).unwrap_or(u32::MAX));
                    }
                    answered += 1;
                    let t = t.unwrap_or(high_water).max(high_water);
                    high_water = t;
                    engine.tick(t);
                    let d = stamp(&trace);
                    layers.sweep += d - c;
                    let reply = engine.observe(item, server, t);
                    let replays = engine.take_replayed();
                    let e = stamp(&trace);
                    layers.observe += e - d;
                    calls[0] = ("serve.sweep", c, d);
                    calls[1] = ("serve.observe", d, e);
                    n = 2;
                    let mut r = vec![match reply {
                        ServeReply::Decision(dec) => decision_response(&dec).to_string_compact(),
                        ServeReply::Shed { item, reason } => {
                            shed_response(item, reason).to_string_compact()
                        }
                    }];
                    r.extend(
                        replays
                            .iter()
                            .map(|n| replayed_response(n).to_string_compact()),
                    );
                    r
                }
                Ok(WireRequest::Finish { item }) => {
                    let report = engine.finish(item);
                    let d = stamp(&trace);
                    layers.finish += d - c;
                    calls[0] = ("serve.finish", c, d);
                    n = 1;
                    vec![match report {
                        Some(r) => report_response(&r).to_string_compact(),
                        None => error_response("finish: item not tracked").to_string_compact(),
                    }]
                }
                Ok(WireRequest::Stats) => vec![stats_response(&engine.stats()).to_string_compact()],
                Ok(WireRequest::Metrics) => {
                    vec![error_response("metrics: no registry attached").to_string_compact()]
                }
                Ok(WireRequest::Shutdown) => {
                    done = true;
                    vec![bye_response().to_string_compact()]
                }
            };
            let f = stamp(&trace);
            let r0 = calls[n.saturating_sub(1)].2.max(c);
            layers.render += f - r0;
            calls[n] = ("serve.render", r0, f);
            let mut wrote = Ok(());
            for line in &rendered {
                match emit(&mut out, line) {
                    Ok(bytes) => {
                        bytes_out += bytes;
                        flushes += 1;
                    }
                    Err(e) => wrote = Err(e),
                }
            }
            let g = stamp(&trace);
            layers.write += g - f;
            calls[n + 1] = ("serve.write", f, g);
            if TRACED && id.is_multiple_of(SPAN_SAMPLE) {
                let root = trace.push("serve.line", a, g, None, id);
                trace.push("serve.read", a, b, Some(root), id);
                trace.push("serve.parse", b, c, Some(root), id);
                for &(name, s0, s1) in &calls[..n + 2] {
                    trace.push(name, s0, s1, Some(root), id);
                }
            }
            id += 1;
            if let Err(e) = wrote {
                break Err(e);
            }
            if done {
                break Ok(());
            }
        };
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        unpin();
        drop(out);
        drop(lines);
        let log = writer
            .join()
            .map_err(|_| "writer panicked".to_string())?
            .map_err(|e| format!("write: {e}"))?;
        let output = drain.join().map_err(|_| "drain panicked".to_string())??;
        result?;
        Ok(Replay {
            wall_ns,
            layers,
            flushes,
            bytes_out,
            stats: engine.stats(),
            output,
            late: log.late,
            outstanding,
            trace: TRACED.then_some(trace),
        })
    })
}

/// Checks a replay's output: one valid line per request line, then the
/// final `stats` and `bye`; returns the failed count.
fn check_replay(stream: &Stream, r: &Replay) -> u64 {
    let text = String::from_utf8_lossy(&r.output);
    let mut failed = check_responses(stream, &text);
    let tail: Vec<&str> = text.lines().skip(stream.lines()).collect();
    let tail_ok = tail.len() == 2
        && tail
            .iter()
            .zip(["stats", "bye"])
            .all(|(l, k)| Json::parse(l).is_ok_and(|d| kind(&d) == k));
    if !tail_ok {
        failed += 1;
    }
    failed + r.stats.sheds
}

/// `--trace 1`: the per-layer split of the daemon loop.
pub fn traced(shape: &Shape, args: &Args) -> Result<Outcome, String> {
    let stream = Stream::build(shape, args.seed);
    let want = in_process_stats(shape, &stream)?;
    // Untraced and traced replays alternate, so both see the same warm
    // process; the overhead compares their medians.
    let mut failed = 0;
    let mut plain_walls = Vec::new();
    let mut runs = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let plain = replay::<false>(shape, &stream)?;
        failed += check_replay(&stream, &plain) + u64::from(plain.stats != want);
        plain_walls.push(plain.wall_ns as f64);
        let r = replay::<true>(shape, &stream)?;
        failed += check_replay(&stream, &r) + u64::from(r.stats != want);
        runs.push(r);
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    let attempted = (2 * runs.len() * stream.lines()) as u64;
    let med = |f: &dyn Fn(&Replay) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let layer = |f: fn(&Layers) -> u64| med(&|r: &Replay| f(&r.layers) as f64);

    let first = &runs[0];
    if let Some(tr) = &first.trace {
        let path = Path::new("perfbench/out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        eprintln!("perfbench: sampled self time per span (1 line in {SPAN_SAMPLE}):");
        for (name, t) in tr.self_times() {
            eprintln!("  {name:<14} {:>12.3} ms", t as f64 / 1e6);
        }
    }
    let late: Vec<u64> = runs.iter().flat_map(|r| r.late.iter().copied()).collect();
    let late_q = |q: f64| {
        if late.is_empty() {
            0.0
        } else {
            quantile(&late.iter().map(|&v| v as f64).collect::<Vec<_>>(), q) / 1e3
        }
    };
    let (backlog_first, backlog_last) = if shape.rate.is_some() {
        backlog_quarters(&first.outstanding)
    } else {
        (0.0, 0.0)
    };
    let s = want;
    let values = vec![
        ("serve.read_ns", layer(|l| l.read)),
        ("serve.parse_ns", layer(|l| l.parse)),
        ("serve.sweep_ns", layer(|l| l.sweep)),
        ("serve.observe_ns", layer(|l| l.observe)),
        ("serve.finish_ns", layer(|l| l.finish)),
        ("serve.render_ns", layer(|l| l.render)),
        ("serve.write_ns", layer(|l| l.write)),
        ("serve.flushes", first.flushes as f64),
        ("serve.bytes_out", first.bytes_out as f64),
        (
            "serve.hit_ratio",
            s.cache_hits as f64 / (s.requests.max(1)) as f64,
        ),
        ("serve.expirations", s.expirations as f64),
        ("serve.items_peak", s.items_peak as f64),
        ("serve.copies_peak", s.copies_peak as f64),
        ("serve.gen_late_p50_us", late_q(0.5)),
        ("serve.gen_late_p99_us", late_q(0.99)),
        ("serve.outstanding_first_q", backlog_first),
        ("serve.outstanding_last_q", backlog_last),
        (
            "trace.layer_share",
            med(&|r: &Replay| r.layers.sum() as f64 / r.wall_ns as f64),
        ),
        (
            "trace.overhead",
            med(&|r: &Replay| r.wall_ns as f64) / median(&plain_walls),
        ),
        ("trace.wall_ns", med(&|r: &Replay| r.wall_ns as f64)),
        (
            "trace.spans",
            first.trace.as_ref().map_or(0, Trace::len) as f64,
        ),
        ("trace.passes", runs.len() as f64),
    ];
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: crate::per_layer(&values),
    })
}
