//! The `rr-serve` side: building and spawning the daemon, one client
//! thread driving two pipelined connections, and the wire metrics.
//!
//! The client is deliberately single-threaded: it waits on both sockets
//! and the next due time at once ([`wait_readable`]), so requests leave
//! on schedule and replies are timestamped when they arrive, while the
//! load generator itself occupies at most one of the host's two cores.

use crate::library::{Tally, POOL_THREADS};
use crate::report::{Answer, Report};
use crate::stats::{percentile, sorted, Arrival};
use crate::sys::{terminate, wait_readable};
use crate::trace::Spans;
use crate::workloads::Input;
use rr_bench::json::{from_str, Value};
use rr_mp::Int;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::time::{Duration, Instant};

/// The end-to-end deadline every request carries.
pub const DEADLINE_MS: u64 = 10_000;

/// How long a phase waits for replies after its last request.
const DRAIN: Duration = Duration::from_secs(15);

/// Builds `rr-serve` from the repository's own workspace into `target`
/// and returns its path.
pub fn build_server(target: &Path) -> io::Result<PathBuf> {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "rr-serve",
        ])
        .args(["--manifest-path", manifest])
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building rr-serve failed: {status}"
        )));
    }
    Ok(target.join("release").join("rr-serve"))
}

/// A spawned `rr-serve --threads 2 --solve-threads 2`, stopped (SIGTERM,
/// then SIGKILL after 10 s) when dropped.
pub struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the daemon on a kernel-chosen port and waits for `/readyz`.
    pub fn spawn(bin: &Path) -> io::Result<Server> {
        let threads = POOL_THREADS.to_string();
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &threads,
                "--solve-threads",
                &threads,
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // From here on, an early return drops `server`, which reaps the child.
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut banner = String::new();
        BufReader::new(stdout).read_line(&mut banner)?;
        server.addr = banner
            .trim()
            .strip_prefix("rr-serve listening on ")
            .and_then(|a| SocketAddr::from_str(a).ok())
            .ok_or_else(|| io::Error::other(format!("unexpected rr-serve banner {banner:?}")))?;
        let t = Instant::now();
        while !server.get("/readyz")?.starts_with("HTTP/1.0 200") {
            if t.elapsed() > Duration::from_secs(10) {
                return Err(io::Error::other("rr-serve not ready after 10 s"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(server)
    }

    /// One HTTP GET on its own connection; the raw response.
    pub fn get(&self, path: &str) -> io::Result<String> {
        let mut s = TcpStream::connect(self.addr)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
        let mut out = String::new();
        s.read_to_string(&mut out)?;
        Ok(out)
    }

    /// Opens `n` request connections.
    pub fn connect(&self, n: usize) -> io::Result<Client> {
        let conns = (0..n)
            .map(|_| {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                Ok(Conn {
                    stream,
                    buf: Vec::new(),
                    outstanding: VecDeque::new(),
                    open: true,
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Client { conns })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if terminate(self.child.id()).is_ok() {
            let t = Instant::now();
            while t.elapsed() < Duration::from_secs(10) {
                if let Ok(Some(_)) = self.child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    outstanding: VecDeque<usize>,
    open: bool,
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Request id.
    pub id: u64,
    /// Template (input) index.
    pub template: usize,
    /// When it was due (the send time in a closed loop).
    pub due: Instant,
    /// When it was written.
    pub sent: Instant,
    /// When its reply arrived, if it did.
    pub received: Option<Instant>,
    /// The reply line.
    pub reply: String,
}

/// Request connections to one server, driven from the calling thread.
pub struct Client {
    conns: Vec<Conn>,
}

/// Wire form of every template, without the leading id.
pub fn request_bodies(inputs: &[Input]) -> Vec<String> {
    inputs
        .iter()
        .map(|i| {
            let coeffs: Vec<String> = i.poly.coeffs().iter().map(|c| format!("\"{c}\"")).collect();
            format!(
                "\"tenant\": \"rrbench\", \"coeffs\": [{}], \"mu\": {}, \"deadline_ms\": {DEADLINE_MS}}}\n",
                coeffs.join(", "),
                i.mu
            )
        })
        .collect()
}

fn request_line(id: u64, body: &str) -> String {
    format!("{{\"id\": {id}, {body}")
}

impl Client {
    fn send(
        &mut self,
        sent: &mut Vec<Sent>,
        c: usize,
        template: usize,
        due: Instant,
        line: &str,
        id: u64,
    ) -> io::Result<()> {
        let conn = &mut self.conns[c];
        conn.stream.write_all(line.as_bytes())?;
        sent.push(Sent {
            id,
            template,
            due,
            sent: Instant::now(),
            received: None,
            reply: String::new(),
        });
        conn.outstanding.push_back(sent.len() - 1);
        Ok(())
    }

    /// Waits until a reply arrives or `until`; returns the connections
    /// that completed a reply, in arrival order.
    fn receive(&mut self, sent: &mut [Sent], until: Instant) -> io::Result<Vec<usize>> {
        let open: Vec<usize> = (0..self.conns.len())
            .filter(|&c| self.conns[c].open)
            .collect();
        if open.is_empty() {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
            return Ok(Vec::new());
        }
        let fds: Vec<_> = open
            .iter()
            .map(|&c| self.conns[c].stream.as_raw_fd())
            .collect();
        let ready = wait_readable(&fds, until.saturating_duration_since(Instant::now()))?;
        let mut done = Vec::new();
        for (&c, _) in open.iter().zip(ready).filter(|(_, r)| *r) {
            let conn = &mut self.conns[c];
            let mut chunk = [0u8; 65536];
            let n = conn.stream.read(&mut chunk)?;
            let t = Instant::now();
            if n == 0 {
                conn.open = false;
                continue;
            }
            conn.buf.extend_from_slice(&chunk[..n]);
            while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = conn.buf.drain(..=pos).collect();
                let Some(k) = conn.outstanding.pop_front() else {
                    return Err(io::Error::other("reply with no outstanding request"));
                };
                sent[k].received = Some(t);
                sent[k].reply = String::from_utf8_lossy(&line).trim().to_string();
                done.push(c);
            }
        }
        Ok(done)
    }

    fn pending(&self) -> bool {
        self.conns
            .iter()
            .any(|c| c.open && !c.outstanding.is_empty())
    }

    /// An open loop: request `k` of `schedule` leaves on connection
    /// `k mod conns` at its due time, whatever is still outstanding.
    pub fn open_loop(
        &mut self,
        bodies: &[String],
        schedule: &[Arrival],
        tally: &Tally,
    ) -> io::Result<Vec<Sent>> {
        // Build every line first; the small lead keeps the first request
        // from being due before the loop starts.
        let lines: Vec<(u64, String)> = schedule
            .iter()
            .map(|a| {
                let id = tally.id();
                (id, request_line(id, &bodies[a.template]))
            })
            .collect();
        let start = Instant::now() + Duration::from_millis(2);
        let last_due = start + schedule.last().map_or(Duration::ZERO, |a| a.due);
        let mut sent = Vec::with_capacity(schedule.len());
        let mut next = 0;
        loop {
            while next < schedule.len() && start + schedule[next].due <= Instant::now() {
                let (id, line) = &lines[next];
                let c = next % self.conns.len();
                self.send(
                    &mut sent,
                    c,
                    schedule[next].template,
                    start + schedule[next].due,
                    line,
                    *id,
                )?;
                next += 1;
            }
            if next == schedule.len() && (!self.pending() || Instant::now() > last_due + DRAIN) {
                return Ok(sent);
            }
            let wake = if next < schedule.len() {
                start + schedule[next].due
            } else {
                last_due + DRAIN
            };
            self.receive(&mut sent, wake)?;
        }
    }

    /// A closed loop: each connection keeps `depth` requests outstanding
    /// (templates from `pick`) until `span` has passed, then drains.
    pub fn closed_loop(
        &mut self,
        bodies: &[String],
        depth: usize,
        span: Duration,
        pick: &mut dyn FnMut() -> usize,
        tally: &Tally,
    ) -> io::Result<Vec<Sent>> {
        let mut sent = Vec::new();
        let end = Instant::now() + span;
        let mut issue = |client: &mut Client, sent: &mut Vec<Sent>, c: usize| {
            let (id, t) = (tally.id(), pick());
            client.send(
                sent,
                c,
                t,
                Instant::now(),
                &request_line(id, &bodies[t]),
                id,
            )
        };
        for c in 0..self.conns.len() {
            for _ in 0..depth {
                issue(self, &mut sent, c)?;
            }
        }
        while self.pending() && Instant::now() < end + DRAIN {
            for c in self.receive(&mut sent, end + DRAIN)? {
                if Instant::now() < end {
                    issue(self, &mut sent, c)?;
                }
            }
        }
        // Stamp due times of closed-loop requests as their send times.
        for s in &mut sent {
            s.due = s.sent;
        }
        Ok(sent)
    }

    /// Sends every template once (alternating connections) and waits
    /// for all replies: the warm-up pass.
    pub fn each_once(&mut self, bodies: &[String], tally: &Tally) -> io::Result<Vec<Sent>> {
        let schedule: Vec<Arrival> = (0..bodies.len())
            .map(|t| Arrival {
                due: Duration::ZERO,
                template: t,
            })
            .collect();
        self.open_loop(bodies, &schedule, tally)
    }
}

/// A parsed reply.
struct Reply {
    ok: bool,
    code: String,
    wall_ms: f64,
    queue_wait_ms: f64,
    retries: u64,
    answer: Option<Answer>,
}

fn parse_reply(s: &Sent) -> Option<Reply> {
    let v = from_str(&s.reply).ok()?;
    let ok = v["ok"] == Value::Bool(true);
    let answer = ok.then(|| -> Option<Answer> {
        let roots = v["roots"].as_array()?;
        let nums = roots
            .iter()
            .map(|r| r["num"].as_str().and_then(|n| Int::from_str(n).ok()))
            .collect::<Option<Vec<Int>>>()?;
        Some(Answer {
            id: s.id,
            input: s.template,
            n_star: v["n_star"].as_u64()? as usize,
            nums,
            mu: roots.first().and_then(|r| r["mu"].as_u64()).unwrap_or(0),
            degraded: v["degraded"].as_str().map(str::to_string),
        })
    });
    Some(Reply {
        ok,
        code: v["code"].as_str().unwrap_or("?").to_string(),
        wall_ms: v["wall_ms"].as_f64().unwrap_or(0.0),
        queue_wait_ms: v["queue_wait_ms"].as_f64().unwrap_or(0.0),
        retries: v["retries"].as_u64().unwrap_or(0),
        answer: answer.flatten(),
    })
}

/// One phase's requests, judged: latency from the due time (a failed
/// request counts as the full deadline), and what the server reported.
pub struct Judged {
    /// Per request, in schedule order: latency (ms) from its due time.
    pub latency_ms: Vec<f64>,
    /// Per request: whether it got an `ok` reply with roots.
    pub ok: Vec<bool>,
    /// Per template: latencies of its `ok` requests (ms).
    pub per_template: Vec<Vec<f64>>,
    /// Client round trip minus server wall minus queue wait (ms).
    pub overhead_ms: Vec<f64>,
    /// Server-reported queue wait (ms).
    pub queue_wait_ms: Vec<f64>,
    /// Server-reported solve wall (ms).
    pub solve_ms: Vec<f64>,
    /// How late each request left (ms).
    pub late_ms: Vec<f64>,
    /// Server-side retries.
    pub retries: u64,
    /// Non-`ok` replies and requests with no reply.
    pub rejected: u64,
}

/// Judges `sent`, adding answers and outcomes to `tally` when
/// `counts` (the capacity ladder's shed load is judged but not counted
/// as failure), and recording one span per request.
pub fn judge(
    sent: &[Sent],
    templates: usize,
    tally: &mut Tally,
    counts: bool,
    spans: &Spans,
) -> Judged {
    let mut j = Judged {
        latency_ms: Vec::new(),
        ok: Vec::new(),
        per_template: vec![Vec::new(); templates],
        overhead_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        solve_ms: Vec::new(),
        late_ms: Vec::new(),
        retries: 0,
        rejected: 0,
    };
    for s in sent {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        j.late_ms.push(ms(s.sent - s.due));
        let reply = s.received.and_then(|_| parse_reply(s));
        let ok = reply.as_ref().is_some_and(|r| r.ok && r.answer.is_some());
        if counts {
            tally.attempted += 1;
            tally.errors += u64::from(!ok);
        }
        j.ok.push(ok);
        let Some((received, reply)) = s.received.zip(reply) else {
            j.latency_ms.push(DEADLINE_MS as f64);
            j.rejected += 1;
            continue;
        };
        j.retries += reply.retries;
        let latency = ms(received - s.due);
        let mut args = vec![
            ("server_wall_ms".to_string(), reply.wall_ms),
            ("queue_wait_ms".to_string(), reply.queue_wait_ms),
            ("late_ms".to_string(), ms(s.sent - s.due)),
        ];
        if !ok {
            eprintln!("rrbench: request {} answered {}", s.id, reply.code);
            j.latency_ms.push(DEADLINE_MS as f64);
            j.rejected += 1;
        } else {
            let overhead = ms(received - s.sent) - reply.wall_ms - reply.queue_wait_ms;
            args.push(("overhead_ms".to_string(), overhead));
            j.latency_ms.push(latency);
            j.per_template[s.template].push(latency);
            j.overhead_ms.push(overhead);
            j.queue_wait_ms.push(reply.queue_wait_ms);
            j.solve_ms.push(reply.wall_ms);
            if counts {
                tally
                    .answers
                    .push(reply.answer.expect("ok replies carry an answer"));
            }
        }
        spans.record(
            "request",
            &format!("template {}", s.template),
            s.id,
            1,
            s.due,
            received,
            args,
        );
    }
    j
}

impl Judged {
    /// Whether this ladder step met the limits: p99 ≤ 100 ms (failures
    /// count as misses), at most 1% failed, and no growing backlog (the
    /// last quarter's median latency at most twice the first quarter's).
    pub fn meets_limit(&self) -> bool {
        let n = self.latency_ms.len();
        if n < 8 {
            return false;
        }
        let failed = self.ok.iter().filter(|&&ok| !ok).count();
        let quarter = |k: usize| crate::stats::median(&self.latency_ms[k * n / 4..(k + 1) * n / 4]);
        percentile(&sorted(&self.latency_ms), 99.0) <= 100.0
            && failed * 100 <= n
            && quarter(3) <= 2.0 * quarter(0)
    }

    /// Sets the `serve.*` metrics from this phase (plus the scrape and
    /// ladder results the caller measured).
    pub fn report(&self, report: &mut Report) {
        let pct = |xs: &[f64], p: f64| {
            if xs.is_empty() {
                0.0
            } else {
                percentile(&sorted(xs), p)
            }
        };
        report.set("serve.overhead_ms.p50", pct(&self.overhead_ms, 50.0));
        report.set("serve.overhead_ms.p99", pct(&self.overhead_ms, 99.0));
        report.set("serve.queue_wait_ms.p50", pct(&self.queue_wait_ms, 50.0));
        report.set("serve.queue_wait_ms.p99", pct(&self.queue_wait_ms, 99.0));
        report.set("serve.solve_ms.p50", pct(&self.solve_ms, 50.0));
        report.set("serve.solve_ms.p99", pct(&self.solve_ms, 99.0));
        report.set("serve.retries", self.retries as f64);
        report.set("serve.rejected", self.rejected as f64);
        report.set("serve.gen_late_ms.p99", pct(&self.late_ms, 99.0));
    }
}

/// The p99 of `rr_sched_task_latency_ns` from a Prometheus scrape, in
/// µs: the upper bound of the base-2 bucket holding the 99th percentile
/// (summed over label sets). `None` if no task ran.
pub fn task_latency_p99_us(prometheus: &str) -> Option<f64> {
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in prometheus.lines() {
        let Some(rest) = line.strip_prefix("rr_sched_task_latency_ns_bucket{") else {
            continue;
        };
        let Some(le_at) = rest.find("le=\"") else {
            continue;
        };
        let le = &rest[le_at + 4..];
        let Some(end) = le.find('"') else { continue };
        let bound = if &le[..end] == "+Inf" {
            f64::INFINITY
        } else {
            le[..end].parse().ok()?
        };
        let count: f64 = line.rsplit(' ').next()?.parse().ok()?;
        match buckets.iter_mut().find(|(b, _)| *b == bound) {
            Some((_, c)) => *c += count,
            None => buckets.push((bound, count)),
        }
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last()?.1;
    if total == 0.0 {
        return None;
    }
    let finite_max = buckets.iter().rev().find(|(b, _)| b.is_finite())?.0;
    let (bound, _) = buckets.into_iter().find(|&(_, c)| c >= 0.99 * total)?;
    Some(bound.min(finite_max) / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_latency_p99_from_cumulative_buckets() {
        let text = "\
# TYPE rr_sched_task_latency_ns histogram
rr_sched_task_latency_ns_bucket{le=\"1023\"} 50
rr_sched_task_latency_ns_bucket{le=\"2047\"} 98
rr_sched_task_latency_ns_bucket{le=\"4095\"} 100
rr_sched_task_latency_ns_bucket{le=\"+Inf\"} 100
rr_sched_task_latency_ns_sum 1
rr_sched_task_latency_ns_count 100
";
        assert_eq!(task_latency_p99_us(text), Some(4.095));
        assert_eq!(task_latency_p99_us("nothing here"), None);
    }

    #[test]
    fn ladder_limit_rules() {
        let judged = |latency_ms: Vec<f64>, ok: Vec<bool>| Judged {
            latency_ms,
            ok,
            per_template: vec![],
            overhead_ms: vec![],
            queue_wait_ms: vec![],
            solve_ms: vec![],
            late_ms: vec![],
            retries: 0,
            rejected: 0,
        };
        assert!(judged(vec![5.0; 200], vec![true; 200]).meets_limit());
        // A tail over 100 ms misses the limit.
        let mut slow = vec![5.0; 200];
        slow[150..].iter_mut().for_each(|x| *x = 150.0);
        assert!(!judged(slow, vec![true; 200]).meets_limit());
        // A growing backlog: the last quarter is 3× the first.
        let growing: Vec<f64> = (0..200).map(|k| 10.0 + k as f64 * 0.2).collect();
        assert!(!judged(growing, vec![true; 200]).meets_limit());
        // More than 1% failed.
        let mut ok = vec![true; 200];
        ok[..3].iter_mut().for_each(|x| *x = false);
        assert!(!judged(vec![5.0; 200], ok).meets_limit());
    }
}
