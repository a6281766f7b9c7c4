//! `ramr-serve`: a long-running job server over the concurrent scheduler.
//!
//! The rest of the workspace submits jobs in-process; this crate is the
//! front door the ROADMAP's "service mode" item calls for. A [`Server`]
//! binds a std `TcpListener` (no new dependencies — the vendored offline
//! registry stays untouched) and speaks a small length-prefixed JSON
//! protocol ([`proto`]): clients connect, authenticate as a named tenant
//! (`HELLO`), submit jobs by app name + Table I input spec + per-job
//! [`mr_core::ENV_KNOBS`] overrides (`SUBMIT`), and stream back results
//! carrying the same hand-rolled `--metrics-json` report the CLI writes.
//!
//! Resource-awareness reaches the wire: the scheduler's typed admission
//! control ([`ramr::ShedReason`]) maps onto explicit `RETRY_AFTER`
//! responses when the queue is full, a tenant is over quota, or the
//! watchdog reports saturation — so backpressure is a protocol feature,
//! not a hung socket. A `METRICS` request returns live queue gauges and
//! per-tenant accounting on the same connection, and shutdown is graceful:
//! in-flight epochs drain, queued tickets resolve to `JOB_ERROR`s, every
//! connection gets a `BYE`.
//!
//! See `SERVICE.md` at the repository root for the operator-facing
//! protocol reference, knob table, and quickstart.
//!
//! ```no_run
//! use ramr_serve::{JobRequest, ServeClient, ServeConfig, Server};
//!
//! let mut config = ServeConfig::default();
//! config.addr = "127.0.0.1:0".into(); // ephemeral port
//! let server = Server::bind(config)?;
//! let addr = server.local_addr().to_string();
//!
//! let mut client = ServeClient::connect(&addr, "alice", None)?;
//! let result = client.run_job(&JobRequest::new("wc"))?;
//! println!("{} keys, digest {}", result.keys, result.digest);
//! server.shutdown();
//! server.wait();
//! # Ok::<(), ramr_serve::ServeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod proto;
pub mod registry;
pub mod server;

pub use client::{ClientOptions, JobRequest, JobResult, ServeClient, ServeError};
pub use proto::{RequestKind, ResponseKind, PROTOCOL_VERSION};
pub use registry::{
    digest64, outcome_of, render_pairs, retry_hint_ms, JobOutcome, PoisonJob, PoolStatus, WireSpec,
    POISON_APP, SERVABLE_APPS,
};
pub use server::Server;

use mr_core::{parse_knob, parse_knob_bool, EnvKnob, RuntimeConfig};
use ramr::Backend;

/// Server configuration: the listen/auth/limit surface plus the base
/// [`RuntimeConfig`] every pool starts from (per-job knob overrides are
/// applied on top, and each distinct override set gets its own pool).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`RAMR_SERVE_ADDR`); `HOST:0` picks an ephemeral
    /// port, reported by [`Server::local_addr`].
    pub addr: String,
    /// Shared authentication token (`RAMR_SERVE_TOKEN`). When set, every
    /// `HELLO` and `SHUTDOWN` must carry it; unset means an open server.
    pub token: Option<String>,
    /// Bound on distinct `(app, backend, knob-set)` pools the server will
    /// open (`RAMR_SERVE_MAX_POOLS`); each pool owns a worker-thread
    /// session, so this caps the server's thread footprint.
    pub max_pools: usize,
    /// Base `RETRY_AFTER` hint in milliseconds (`RAMR_SERVE_RETRY_MS`);
    /// scaled up by shed severity (see [`retry_hint_ms`]).
    pub retry_ms: u64,
    /// Serve the `poison` chaos app (`RAMR_SERVE_CHAOS`); off in
    /// production, on in the fault-isolation tests.
    pub chaos: bool,
    /// Frame size bound in bytes (`RAMR_SERVE_MAX_FRAME`), enforced on
    /// read and write.
    pub max_frame: usize,
    /// Per-tenant token-bucket rate limit in submits per second
    /// (`RAMR_SERVE_RATE`); `0.0` disables rate limiting. The bucket
    /// holds one second of burst (at least one token), refills
    /// continuously, and refusals shed with `rate-limited` `RETRY_AFTER`
    /// responses.
    pub rate: f64,
    /// Ceiling on the heartbeat interval a client may negotiate in
    /// `HELLO`, in milliseconds (`RAMR_SERVE_HEARTBEAT_MS`); `0` refuses
    /// heartbeat negotiation entirely. A connection that negotiated a
    /// heartbeat and then stays silent for three intervals is dropped
    /// (its terminal frames park for reconnect pickup).
    pub heartbeat_ms: u64,
    /// How long a terminal frame (RESULT / JOB_ERROR) whose tenant has
    /// disconnected is parked server-side before it expires, in
    /// milliseconds (`RAMR_SERVE_PARK_TTL_MS`). Parked frames are
    /// re-delivered when the tenant re-sends the same `request_id`.
    pub park_ttl_ms: u64,
    /// Backend jobs run on when a `SUBMIT` names none.
    pub default_backend: Backend,
    /// The base runtime configuration pools are built from.
    pub base: RuntimeConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ServeConfig {
            addr: "127.0.0.1:7199".into(),
            token: None,
            max_pools: 4,
            retry_ms: 50,
            chaos: false,
            max_frame: 4 << 20,
            rate: 0.0,
            heartbeat_ms: 30_000,
            park_ttl_ms: 60_000,
            default_backend: Backend::RamrStatic,
            base: RuntimeConfig::builder()
                .num_workers(threads.max(2))
                .num_combiners((threads / 2).max(1))
                .task_size(1024)
                .queue_capacity(5000)
                .batch_size(1000)
                .build()
                .expect("default serve config is valid"),
        }
    }
}

impl ServeConfig {
    /// Reads the `RAMR_SERVE_*` environment, overlaying the defaults —
    /// the service-layer twin of [`RuntimeConfig::from_env`].
    ///
    /// # Errors
    ///
    /// Names the first variable whose value does not parse.
    pub fn from_env() -> Result<Self, String> {
        let mut config = ServeConfig::default();
        for knob in SERVE_KNOBS {
            if let Ok(raw) = std::env::var(knob.env) {
                config = (knob.apply)(config, &raw, knob.env)?;
            }
        }
        Ok(config)
    }
}

/// The service layer's knob table — every `RAMR_SERVE_*` variable, its
/// CLI flag, and its apply function, in one place: the same row type as
/// [`mr_core::ENV_KNOBS`], consumed by [`ServeConfig::from_env`], the CLI's
/// `serve` flags, and the docs-drift tests over `SERVICE.md`.
pub const SERVE_KNOBS: &[EnvKnob<ServeConfig>] = &[
    EnvKnob {
        env: "RAMR_SERVE_ADDR",
        cli: "serve-addr",
        value: "HOST:PORT",
        help: "listen address; port 0 picks an ephemeral port",
        apply: |mut c, raw, _| {
            c.addr = raw.to_string();
            Ok(c)
        },
    },
    EnvKnob {
        env: "RAMR_SERVE_TOKEN",
        cli: "serve-token",
        value: "TOKEN",
        help: "shared auth token for HELLO and SHUTDOWN; unset = open server",
        apply: |mut c, raw, _| {
            c.token = (!raw.is_empty()).then(|| raw.to_string());
            Ok(c)
        },
    },
    EnvKnob {
        env: "RAMR_SERVE_MAX_POOLS",
        cli: "serve-max-pools",
        value: "N",
        help: "bound on distinct (app, backend, knob-set) worker pools",
        apply: |mut c, raw, src| {
            c.max_pools = parse_knob(raw, src)?;
            if c.max_pools == 0 {
                return Err(format!("{src} must be at least 1"));
            }
            Ok(c)
        },
    },
    EnvKnob {
        env: "RAMR_SERVE_RETRY_MS",
        cli: "serve-retry-ms",
        value: "MS",
        help: "base RETRY_AFTER hint; scaled 1x/2x/4x by shed severity",
        apply: |mut c, raw, src| {
            c.retry_ms = parse_knob(raw, src)?;
            Ok(c)
        },
    },
    EnvKnob {
        env: "RAMR_SERVE_CHAOS",
        cli: "serve-chaos",
        value: "0|1",
        help: "serve the poison chaos app (fault-isolation tests only)",
        apply: |mut c, raw, src| {
            c.chaos = parse_knob_bool(raw, src)?;
            Ok(c)
        },
    },
    EnvKnob {
        env: "RAMR_SERVE_RATE",
        cli: "serve-rate",
        value: "PER_SEC",
        help: "per-tenant token-bucket rate limit in submits/sec; 0 = off",
        apply: |mut c, raw, src| {
            c.rate = parse_knob(raw, src)?;
            if !c.rate.is_finite() || c.rate < 0.0 {
                return Err(format!("{src} must be a finite rate >= 0"));
            }
            Ok(c)
        },
    },
    EnvKnob {
        env: "RAMR_SERVE_HEARTBEAT_MS",
        cli: "serve-heartbeat-ms",
        value: "MS",
        help: "ceiling on the HELLO-negotiated heartbeat interval; 0 = refuse",
        apply: |mut c, raw, src| {
            c.heartbeat_ms = parse_knob(raw, src)?;
            Ok(c)
        },
    },
    EnvKnob {
        env: "RAMR_SERVE_PARK_TTL_MS",
        cli: "serve-park-ttl-ms",
        value: "MS",
        help: "how long terminal frames for a gone tenant stay claimable",
        apply: |mut c, raw, src| {
            c.park_ttl_ms = parse_knob(raw, src)?;
            if c.park_ttl_ms == 0 {
                return Err(format!("{src} must be at least 1 ms"));
            }
            Ok(c)
        },
    },
    EnvKnob {
        env: "RAMR_SERVE_MAX_FRAME",
        cli: "serve-max-frame",
        value: "BYTES",
        help: "wire frame size bound, enforced on read and write",
        apply: |mut c, raw, src| {
            c.max_frame = parse_knob(raw, src)?;
            if c.max_frame < 1024 {
                return Err(format!("{src} must be at least 1024 bytes"));
            }
            Ok(c)
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_knob_table_applies_and_validates() {
        let base = ServeConfig::default();
        let knob = |env: &str| SERVE_KNOBS.iter().find(|k| k.env == env).unwrap();
        let c = (knob("RAMR_SERVE_ADDR").apply)(base.clone(), "0.0.0.0:9", "t").unwrap();
        assert_eq!(c.addr, "0.0.0.0:9");
        let c = (knob("RAMR_SERVE_TOKEN").apply)(base.clone(), "s3cret", "t").unwrap();
        assert_eq!(c.token.as_deref(), Some("s3cret"));
        let c = (knob("RAMR_SERVE_CHAOS").apply)(base.clone(), "1", "t").unwrap();
        assert!(c.chaos);
        let c = (knob("RAMR_SERVE_RATE").apply)(base.clone(), "2.5", "t").unwrap();
        assert!((c.rate - 2.5).abs() < f64::EPSILON);
        let c = (knob("RAMR_SERVE_HEARTBEAT_MS").apply)(base.clone(), "250", "t").unwrap();
        assert_eq!(c.heartbeat_ms, 250);
        let c = (knob("RAMR_SERVE_PARK_TTL_MS").apply)(base.clone(), "500", "t").unwrap();
        assert_eq!(c.park_ttl_ms, 500);
        assert!((knob("RAMR_SERVE_MAX_POOLS").apply)(base.clone(), "0", "t").is_err());
        assert!((knob("RAMR_SERVE_MAX_FRAME").apply)(base.clone(), "12", "t").is_err());
        assert!((knob("RAMR_SERVE_RATE").apply)(base.clone(), "-1", "t").is_err());
        assert!((knob("RAMR_SERVE_RATE").apply)(base.clone(), "inf", "t").is_err());
        assert!((knob("RAMR_SERVE_PARK_TTL_MS").apply)(base.clone(), "0", "t").is_err());
        assert!((knob("RAMR_SERVE_RETRY_MS").apply)(base, "soon", "t").is_err());
    }

    #[test]
    fn knob_names_are_unique_and_env_cli_paired() {
        let mut envs: Vec<_> = SERVE_KNOBS.iter().map(|k| k.env).collect();
        let mut clis: Vec<_> = SERVE_KNOBS.iter().map(|k| k.cli).collect();
        envs.sort_unstable();
        envs.dedup();
        clis.sort_unstable();
        clis.dedup();
        assert_eq!(envs.len(), SERVE_KNOBS.len());
        assert_eq!(clis.len(), SERVE_KNOBS.len());
        for knob in SERVE_KNOBS {
            assert!(knob.env.starts_with("RAMR_SERVE_"), "{}", knob.env);
            assert!(knob.cli.starts_with("serve-"), "{}", knob.cli);
        }
    }
}
