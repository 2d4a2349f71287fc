//! The untraced run: a `tcim_service::Server` on an ephemeral loopback TCP
//! port, driven by closed-loop clients (each sends its next line only after
//! the previous reply arrived).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tcim_diffusion::ParallelismConfig;
use tcim_service::{
    CacheConfig, Client, Json, OracleCache, Server, ServerConfig, ServerReport, ServiceEngine,
    ShutdownHandle,
};

/// A running server with its connected clients.
pub struct Rig {
    shutdown: ShutdownHandle,
    run: JoinHandle<std::io::Result<ServerReport>>,
    clients: Vec<Client>,
}

/// What the timed window served: line `i` of the stream for every
/// `i < responses.len()`.
pub struct Served {
    /// Response lines, in stream order.
    pub responses: Vec<String>,
    /// Client-side latency of each response, ms, in stream order.
    pub latencies_ms: Vec<f64>,
    /// From the first send to the last reply, s.
    pub window_s: f64,
    /// Aggregate closed-loop rate: the sum over clients of each client's
    /// replies divided by the time to its own last reply, so a client idling
    /// while another drains the final request does not dilute it.
    pub throughput_rps: f64,
}

fn call(client: &mut Client, line: &str) -> Result<Json, String> {
    client.send_line(line).map_err(|e| format!("send failed: {e}"))?;
    client
        .recv()
        .map_err(|e| format!("receive failed: {e}"))?
        .ok_or_else(|| "the server closed the connection".to_string())
}

impl Rig {
    /// Starts a cold server with a `cache`-sized cache, connects
    /// `connections` clients, pings each and serves `warmup` over the first.
    /// This is the benchmark's set-up.
    pub fn start(connections: usize, cache: CacheConfig, warmup: &[String]) -> Result<Rig, String> {
        let cache = Arc::new(OracleCache::with_config(cache));
        let engine = Arc::new(ServiceEngine::with_cache(cache, ParallelismConfig::auto()));
        let server = Server::bind_tcp("127.0.0.1:0", engine, ServerConfig::default())
            .map_err(|e| format!("cannot bind the server: {e}"))?;
        let addr: SocketAddr = server.tcp_addr().ok_or("the server has no TCP address")?;
        let shutdown = server.shutdown_handle();
        let run = std::thread::spawn(move || server.run());
        let mut rig = Rig { shutdown, run, clients: Vec::new() };
        for _ in 0..connections {
            let mut client =
                Client::connect_tcp(addr).map_err(|e| format!("cannot connect: {e}"))?;
            let pong = call(&mut client, r#"{"op":"ping"}"#)?;
            if pong.get("ok") != Some(&Json::Bool(true)) {
                return Err(format!("ping failed: {pong}"));
            }
            rig.clients.push(client);
        }
        for line in warmup {
            let response = call(&mut rig.clients[0], line)?;
            if response.get("ok") != Some(&Json::Bool(true)) {
                return Err(format!("warm-up request failed: {response}"));
            }
        }
        Ok(rig)
    }

    /// Serves the stream in order over every client until at least
    /// `min_requests` lines were sent, `seconds` have passed and the next
    /// line starts a new `block` (or the stream ends). Each client claims
    /// the next unsent line, so the served lines are always a prefix of the
    /// stream made of whole blocks.
    pub fn run_timed(
        &mut self,
        lines: &[String],
        block: usize,
        seconds: f64,
        min_requests: usize,
    ) -> Result<Served, String> {
        let window = Window {
            lines,
            block,
            min_requests,
            length: Duration::from_secs_f64(seconds),
            start: crate::measure::now(),
            next: AtomicUsize::new(0),
        };
        let per_client: Vec<Result<Vec<Reply>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| scope.spawn(|| window.serve(client)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("a client panicked".to_string())))
                .collect()
        });
        let mut replies = Vec::new();
        let mut throughput_rps = 0.0;
        for result in per_client {
            let done = result?;
            if let Some(last) = done.iter().map(|reply| reply.at).max() {
                throughput_rps += done.len() as f64 / last.as_secs_f64();
            }
            replies.extend(done);
        }
        replies.sort_by_key(|reply| reply.index);
        if replies.iter().enumerate().any(|(rank, reply)| reply.index != rank) {
            return Err("the served lines are not a prefix of the stream".to_string());
        }
        let window_s = replies.iter().map(|reply| reply.at).max().unwrap_or_default().as_secs_f64();
        let (responses, latencies_ms) =
            replies.into_iter().map(|reply| (reply.response, reply.latency_ms)).unzip();
        Ok(Served { responses, latencies_ms, window_s, throughput_rps })
    }

    /// The server's `stats` op, asked over the first client.
    pub fn stats(&mut self) -> Result<Json, String> {
        call(&mut self.clients[0], r#"{"op":"stats"}"#)
    }

    /// Closes the clients, shuts the server down and waits for its drain.
    pub fn stop(self) -> Result<(), String> {
        drop(self.clients);
        self.shutdown.trigger();
        let report = self
            .run
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| format!("the server failed: {e}"))?;
        if report.drained {
            Ok(())
        } else {
            Err("the server did not drain on shutdown".to_string())
        }
    }
}

/// The shared state of one timed window.
struct Window<'a> {
    lines: &'a [String],
    block: usize,
    min_requests: usize,
    length: Duration,
    start: Instant,
    next: AtomicUsize,
}

/// One served line.
struct Reply {
    index: usize,
    response: String,
    latency_ms: f64,
    /// Reply time since the window opened.
    at: Duration,
}

impl Window<'_> {
    /// One closed-loop client: claim the next line, send it, wait for the
    /// reply, repeat until the window closes.
    fn serve(&self, client: &mut Client) -> Result<Vec<Reply>, String> {
        let mut replies = Vec::new();
        loop {
            let index = self.next.load(Ordering::SeqCst);
            let Some(line) = self.lines.get(index) else { break };
            let closed = index >= self.min_requests
                && index.is_multiple_of(self.block)
                && self.start.elapsed() >= self.length;
            if closed {
                break;
            }
            if self
                .next
                .compare_exchange(index, index + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue;
            }
            let sent = crate::measure::now();
            let response = call(client, line)?.to_string();
            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
            replies.push(Reply { index, response, latency_ms, at: self.start.elapsed() });
        }
        Ok(replies)
    }
}
