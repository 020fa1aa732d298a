//! The served side: `csqp-serve` started as its own process, closed-loop
//! stop-and-wait connections, and the server's own STATS and peak RSS.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use csqp_serve::proto::{Frame, Hello, ResultRecord, StatsSnapshot};
use csqp_serve::server::roundtrip;

use crate::mix::Mix;
use crate::probe;

/// A running `csqp-serve` process; killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    addr: String,
    /// Held open: the server prints a stats line every 10 s and would
    /// die on a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The flags every run passes to `csqp-serve`: an ephemeral loopback
/// port, `workers` worker threads and one event thread. Everything else
/// is the server's default (4 simulated servers, queue 64, 64 MiB memo).
pub fn server_flags(workers: usize) -> Vec<String> {
    [
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &workers.to_string(),
        "--event-threads",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

impl ServerProcess {
    /// Start the server and wait until it answers a HELLO. Returns the
    /// process and the connection the readiness check opened.
    pub fn start(bin: &str, workers: usize) -> Result<(ServerProcess, TcpStream), String> {
        let mut child = Command::new(bin)
            .args(server_flags(workers))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let stdout = child.stdout.take().ok_or("server stdout not captured")?;
        let mut proc = ServerProcess {
            child,
            addr: String::new(),
            _stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        proc._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading server banner: {e}"))?;
        proc.addr = line
            .trim()
            .strip_prefix("csqp-serve: listening on ")
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?
            .to_string();
        let stream = proc.connect("csqp-perfbench-ready")?;
        Ok((proc, stream))
    }

    /// Open a session: connect, disable Nagle, exchange HELLO.
    pub fn connect(&self, name: &str) -> Result<TcpStream, String> {
        let mut stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        match roundtrip(
            &mut stream,
            &Frame::Hello(Hello {
                client: name.to_string(),
            }),
        ) {
            Ok(Frame::HelloAck(_)) => Ok(stream),
            other => Err(format!("expected HELLO-ACK, got {other:?}")),
        }
    }

    /// The server process's peak resident set (VmHWM), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

/// The server's STATS snapshot, asked for on an open session.
pub fn stats(stream: &mut TcpStream) -> Result<StatsSnapshot, String> {
    match roundtrip(stream, &Frame::StatsRequest) {
        Ok(Frame::Stats(s)) => Ok(s),
        other => Err(format!("expected STATS, got {other:?}")),
    }
}

/// One reply as the client saw it.
pub enum Reply {
    /// A RESULT frame.
    Result(ResultRecord),
    /// Anything else (ERROR, or an unexpected frame), rendered.
    Other(String),
}

/// Send `requests` one at a time on `stream`, each after the previous
/// reply (the untimed warm pass).
pub fn send_all(stream: &mut TcpStream, mix: &Mix, requests: &[usize]) -> Vec<Reply> {
    requests
        .iter()
        .map(|&u| {
            let req = mix.unique[u].clone();
            into_reply(roundtrip(stream, &Frame::Query(req)))
        })
        .collect()
}

fn into_reply(frame: Result<Frame, csqp_serve::WireError>) -> Reply {
    match frame {
        Ok(Frame::Result(r)) => Reply::Result(r),
        Ok(other) => Reply::Other(format!("{other:?}")),
        Err(e) => Reply::Other(format!("wire error: {e}")),
    }
}

/// What the timed phase observed.
pub struct Timed {
    /// Reply per timed position (`pass * distinct + u`).
    pub replies: Vec<Reply>,
    /// Client-observed latency per timed position, ns.
    pub latency_ns: Vec<u64>,
    /// Per segment: its wall time (first send to last reply) and the
    /// host-speed probe taken just before it.
    pub segments: Vec<Segment>,
}

/// One segment of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// First send to last reply, over all connections.
    pub wall: Duration,
    /// The probe taken before the segment, seconds.
    pub probe_s: f64,
}

/// The timed phase: `connections` closed-loop stop-and-wait sessions
/// making `mix.passes` passes, each cut into segments of `mix.segment`
/// distinct requests. Before every segment the connections wait while
/// one of them runs the host-speed probe with the server idle; then they
/// start the segment together, connection `c` sending the segment's
/// requests `c, c + connections, …` (a fixed count per connection).
/// Sessions open before the clock starts.
pub fn timed_phase(server: &ServerProcess, mix: &Mix, connections: usize) -> Result<Timed, String> {
    let distinct = mix.unique.len();
    let barrier = Arc::new(Barrier::new(connections));
    let mut handles = Vec::with_capacity(connections);
    for c in 0..connections {
        let mut stream = server.connect(&format!("csqp-perfbench-{c}"))?;
        let segments: Vec<Vec<(usize, csqp_serve::QueryRequest)>> = (0..mix.segments())
            .map(|s| {
                (s * mix.segment + c..(s + 1) * mix.segment)
                    .step_by(connections)
                    .map(|p| (p, mix.timed_request(p / distinct, p % distinct)))
                    .collect()
            })
            .collect();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            let mut bounds = Vec::with_capacity(segments.len());
            let mut probes = Vec::new();
            for segment in segments {
                barrier.wait();
                if c == 0 {
                    probes.push(probe::probe_s());
                }
                barrier.wait();
                let start = Instant::now();
                for (p, req) in segment {
                    let issued = Instant::now();
                    let reply = into_reply(roundtrip(&mut stream, &Frame::Query(req)));
                    out.push((p, issued.elapsed().as_nanos() as u64, reply));
                }
                bounds.push((start, Instant::now()));
            }
            let _ = roundtrip(&mut stream, &Frame::Bye);
            (out, bounds, probes)
        }));
    }
    let n = mix.timed_len();
    let mut replies: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
    let mut latency_ns = vec![0u64; n];
    let mut bounds: Vec<Option<(Instant, Instant)>> = vec![None; mix.segments()];
    let mut probes = Vec::new();
    for h in handles {
        let (out, seen, probed) = h.join().map_err(|_| "client thread panicked".to_string())?;
        for (p, lat, reply) in out {
            latency_ns[p] = lat;
            replies[p] = Some(reply);
        }
        for (slot, (s, e)) in bounds.iter_mut().zip(seen) {
            *slot = Some(slot.map_or((s, e), |(s0, e0)| (s0.min(s), e0.max(e))));
        }
        probes.extend(probed);
    }
    let segments = bounds
        .into_iter()
        .zip(probes)
        .map(|(b, probe_s)| {
            let (start, end) = b.ok_or("a segment was not timed")?;
            Ok(Segment {
                wall: end - start,
                probe_s,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Timed {
        replies: replies
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Reply::Other("no reply".into())))
            .collect(),
        latency_ns,
        segments,
    })
}
