//! A seeded TCP chaos proxy for wire-level resilience tests.
//!
//! [`ChaosProxy`] sits between a `ramr serve` client and server and
//! mutates the byte stream according to a plan drawn deterministically
//! from a seed: added per-chunk delays, tiny-chunk splits (stressing the
//! protocol's mid-frame patience), truncated streams, dropped
//! connections, and hard kills mid-frame. The same `(seed, connection
//! index)` pair always yields the same plan, so a chaos run that
//! catches a bug replays bit-identically.
//!
//! Kills are budgeted: once `max_kills` cuts have been planned, later
//! connections get benign plans (delay/split only), which guarantees a
//! retrying client eventually finishes. The first connection of a proxy
//! always draws a kill (when the budget allows one) placed past the
//! `HELLO` handshake but inside the first few `SUBMIT` frames, so every
//! seeded run actually exercises reconnect-and-resume at least once.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::XorShift64;

/// How often pump threads wake to poll stop flags while idle.
const PUMP_TICK: Duration = Duration::from_millis(25);

/// How a planned cut severs the connection once its byte budget is hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CutKind {
    /// Sever immediately, before any payload flows (a refused dial).
    Drop,
    /// Stop forwarding client bytes but close the write half cleanly;
    /// the server sees a polite EOF mid-conversation.
    Truncate,
    /// Hard-shutdown both directions, typically mid-frame: the
    /// adversarial case for stream desync and half-delivered results.
    KillMidFrame,
}

/// A planned cut: sever the connection after forwarding `after_bytes`
/// client-to-server bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cut {
    /// Client-to-server bytes forwarded before the cut fires.
    after_bytes: u64,
    /// How the cut severs the stream.
    kind: CutKind,
}

/// The deterministic mutation plan for one proxied connection.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ConnPlan {
    /// Forwarding chunk size in bytes; small values trickle frames
    /// through byte-at-a-time-ish and exercise mid-frame patience.
    chunk: usize,
    /// Sleep before each forwarded chunk, in microseconds.
    delay_micros: u64,
    /// The planned cut, if the kill budget allowed one.
    cut: Option<Cut>,
}

/// Draws the plan for connection `index` of a proxy seeded with `seed`.
/// Pure and deterministic: the same arguments always return the same
/// plan. `allow_cut` is false once the proxy's kill budget is spent.
fn plan_for(seed: u64, index: u64, allow_cut: bool) -> ConnPlan {
    let mut rng = XorShift64::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.wrapping_add(1).wrapping_mul(0xD134_2543),
    );
    let (chunk, delay_micros) = match rng.below(4) {
        0 => (7, 0),      // split: near-byte-at-a-time trickle
        1 => (4096, 500), // delay: whole frames, each held briefly
        2 => (256, 100),  // both, gently
        _ => (4096, 0),   // clean passthrough
    };
    let cut = if !allow_cut {
        None
    } else if index == 0 {
        // Always churn the first connection: past the ~50-byte HELLO,
        // inside the first few SUBMITs.
        Some(Cut { after_bytes: 300 + rng.below(400), kind: CutKind::KillMidFrame })
    } else if rng.below(10) < 4 {
        let kind = match rng.below(6) {
            0 => CutKind::Drop,
            1 | 2 => CutKind::Truncate,
            _ => CutKind::KillMidFrame,
        };
        let after_bytes = if kind == CutKind::Drop { 0 } else { 64 + rng.below(700) };
        Some(Cut { after_bytes, kind })
    } else {
        None
    };
    ConnPlan { chunk, delay_micros, cut }
}

/// Live counters for a running [`ChaosProxy`].
#[derive(Debug, Default)]
struct ProxyStats {
    connections: AtomicU64,
    planned_kills: AtomicU64,
    kills: AtomicU64,
}

/// A seeded TCP chaos proxy: listens on an ephemeral local port and
/// forwards every accepted connection to `upstream` through the
/// mutations of its per-connection plans.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral localhost port and starts proxying to
    /// `upstream`. At most `max_kills` connections are planned with a
    /// cut; later connections pass through (mutated but whole).
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn launch(upstream: SocketAddr, seed: u64, max_kills: u64) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats::default());
        let accept_stop = Arc::clone(&stop);
        let accept_stats = Arc::clone(&stats);
        let accept_thread = std::thread::Builder::new()
            .name("ramr-chaos-accept".into())
            .spawn(move || {
                accept_loop(&listener, upstream, seed, max_kills, &accept_stop, &accept_stats);
            })
            .expect("spawn chaos accept thread");
        Ok(ChaosProxy { addr, stop, stats, accept_thread: Some(accept_thread) })
    }

    /// The proxy's listening address, for clients to dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many connections the proxy has accepted.
    pub fn connections(&self) -> u64 {
        self.stats.connections.load(Ordering::Relaxed)
    }

    /// How many cuts actually fired (a planned cut only fires if the
    /// connection carries enough bytes to reach it).
    pub fn kills(&self) -> u64 {
        self.stats.kills.load(Ordering::Relaxed)
    }

    /// Stops accepting and severs all pump threads. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    seed: u64,
    max_kills: u64,
    stop: &Arc<AtomicBool>,
    stats: &Arc<ProxyStats>,
) {
    while !stop.load(Ordering::Relaxed) {
        let (client, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(_) => break,
        };
        let index = stats.connections.fetch_add(1, Ordering::Relaxed);
        // Reserve a slot in the kill budget at plan time, so racing
        // connections cannot overshoot it.
        let allow_cut = stats.planned_kills.load(Ordering::Relaxed) < max_kills;
        let plan = plan_for(seed, index, allow_cut);
        if plan.cut.is_some() {
            stats.planned_kills.fetch_add(1, Ordering::Relaxed);
        }
        let server = match TcpStream::connect(upstream) {
            Ok(server) => server,
            Err(_) => continue, // upstream gone: drop the client
        };
        spawn_pumps(client, server, plan, stop, stats);
    }
}

/// Wires the two pump threads for one proxied connection. The cut (if
/// any) is enforced on the client→server direction, whose byte count is
/// deterministic under a deterministic client; firing it severs both
/// directions.
fn spawn_pumps(
    client: TcpStream,
    server: TcpStream,
    plan: ConnPlan,
    stop: &Arc<AtomicBool>,
    stats: &Arc<ProxyStats>,
) {
    client.set_nodelay(true).ok();
    server.set_nodelay(true).ok();
    client.set_read_timeout(Some(PUMP_TICK)).ok();
    server.set_read_timeout(Some(PUMP_TICK)).ok();
    let conn_stop = Arc::new(AtomicBool::new(false));
    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let c2s = PumpPlan {
        chunk: plan.chunk,
        delay_micros: plan.delay_micros,
        cut: plan.cut,
        kills: Some(Arc::clone(stats)),
    };
    let s2c =
        PumpPlan { chunk: plan.chunk, delay_micros: plan.delay_micros, cut: None, kills: None };
    let stop_a = Arc::clone(stop);
    let conn_stop_a = Arc::clone(&conn_stop);
    std::thread::Builder::new()
        .name("ramr-chaos-c2s".into())
        .spawn(move || pump(client_r, server, c2s, &conn_stop_a, &stop_a))
        .ok();
    let stop_b = Arc::clone(stop);
    std::thread::Builder::new()
        .name("ramr-chaos-s2c".into())
        .spawn(move || pump(server_r, client, s2c, &conn_stop, &stop_b))
        .ok();
}

/// The per-direction slice of a [`ConnPlan`].
struct PumpPlan {
    chunk: usize,
    delay_micros: u64,
    cut: Option<Cut>,
    /// Stats handle for the direction that enforces the cut.
    kills: Option<Arc<ProxyStats>>,
}

fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    plan: PumpPlan,
    conn_stop: &Arc<AtomicBool>,
    global_stop: &Arc<AtomicBool>,
) {
    let sever = |src: &TcpStream, dst: &TcpStream| {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
    };
    let mut remaining = plan.cut.map(|c| c.after_bytes);
    let mut buf = vec![0u8; plan.chunk.max(1)];
    loop {
        if global_stop.load(Ordering::Relaxed) || conn_stop.load(Ordering::Relaxed) {
            sever(&src, &dst);
            return;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => {
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue;
            }
            Err(_) => {
                conn_stop.store(true, Ordering::Relaxed);
                sever(&src, &dst);
                return;
            }
        };
        let payload = &buf[..n];
        if let Some(rem) = remaining.as_mut() {
            if (*rem as usize) <= payload.len() {
                // Forward only the bytes up to the cut point — a partial
                // frame when the cut lands mid-frame — then sever.
                let keep = *rem as usize;
                if keep > 0 {
                    let _ = dst.write_all(&payload[..keep]);
                }
                if let Some(stats) = &plan.kills {
                    stats.kills.fetch_add(1, Ordering::Relaxed);
                }
                conn_stop.store(true, Ordering::Relaxed);
                match plan.cut.map(|c| c.kind) {
                    Some(CutKind::Truncate) => {
                        let _ = dst.shutdown(Shutdown::Write);
                        let _ = src.shutdown(Shutdown::Read);
                    }
                    _ => sever(&src, &dst),
                }
                return;
            }
            *rem -= payload.len() as u64;
        }
        if plan.delay_micros > 0 {
            std::thread::sleep(Duration::from_micros(plan.delay_micros));
        }
        if dst.write_all(payload).is_err() {
            conn_stop.store(true, Ordering::Relaxed);
            sever(&src, &dst);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed_and_index() {
        for seed in [1u64, 7, 42, 0xdead] {
            for index in 0..16 {
                assert_eq!(plan_for(seed, index, true), plan_for(seed, index, true));
            }
        }
        assert_ne!(
            (0..16).map(|i| plan_for(3, i, true)).collect::<Vec<_>>(),
            (0..16).map(|i| plan_for(4, i, true)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn first_connection_always_draws_a_kill_clear_of_the_handshake() {
        for seed in 0..64u64 {
            let plan = plan_for(seed, 0, true);
            let cut = plan.cut.expect("connection 0 must churn");
            assert_eq!(cut.kind, CutKind::KillMidFrame);
            assert!((300..700).contains(&cut.after_bytes), "cut at {}", cut.after_bytes);
        }
    }

    #[test]
    fn spent_kill_budget_makes_plans_benign() {
        for seed in 0..32u64 {
            for index in 0..8 {
                assert_eq!(plan_for(seed, index, false).cut, None);
            }
        }
    }

    #[test]
    fn benign_proxy_passes_bytes_through_whole() {
        use std::io::{Read as _, Write as _};
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 1024];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => {
                        if conn.write_all(&buf[..n]).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        let mut proxy = ChaosProxy::launch(upstream_addr, 11, 0).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let message = b"0123456789abcdef".repeat(64);
        client.write_all(&message).unwrap();
        let mut back = vec![0u8; message.len()];
        client.read_exact(&mut back).unwrap();
        assert_eq!(back, message);
        assert_eq!(proxy.connections(), 1);
        assert_eq!(proxy.kills(), 0);
        drop(client);
        proxy.shutdown();
        echo.join().unwrap();
    }

    #[test]
    fn budgeted_kill_fires_once_the_byte_threshold_is_crossed() {
        use std::io::{Read as _, Write as _};
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 4096];
            while matches!(conn.read(&mut buf), Ok(n) if n > 0) {}
        });
        let mut proxy = ChaosProxy::launch(upstream_addr, 5, 4).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Push well past any planned cut point; the proxy must sever.
        let mut dead = false;
        for _ in 0..64 {
            if client.write_all(&[0x5a; 256]).is_err() {
                dead = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !dead {
            // The write side may buffer past the kill; the read side
            // must still observe the severed stream.
            let mut buf = [0u8; 1];
            dead = !matches!(client.read(&mut buf), Ok(n) if n > 0);
        }
        assert!(dead, "connection survived a planned kill");
        assert_eq!(proxy.kills(), 1);
        proxy.shutdown();
        sink.join().unwrap();
    }
}
