//! End-to-end tests for the `ramr-serve` service layer: a real server on
//! a loopback socket, driven through the real client library.
//!
//! The headline test is the differential: a job submitted over the wire
//! must produce the exact bytes — and the same fault/report accounting —
//! as the same job run through an in-process [`JobScheduler`], on all
//! three backends. Around it: typed wire backpressure, tenant auth,
//! fault isolation for a poisoned tenant, graceful shutdown semantics,
//! the live `METRICS` endpoint, and the write side's contracts: a client
//! that stops reading is kicked within the write deadline while other
//! tenants keep being served, and frames from the connection's reader
//! thread, the job waiters and the writer thread never tear or reorder.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mr_apps::inputs::{hg_input, km_input, lr_input, wc_input, InputFlavor, InputSpec, Platform};
use mr_apps::{AppKind, Histogram, KmeansState, LinearRegression, WordCount};
use mr_core::{MapReduceJob, RuntimeConfig};
use ramr::{Backend, JobScheduler};
use ramr_serve::proto::{self, RequestKind, ResponseKind, PROTOCOL_VERSION};
use ramr_serve::{
    digest64, outcome_of, render_pairs, JobRequest, ServeClient, ServeConfig, ServeError, Server,
    POISON_APP,
};
use ramr_telemetry::json::{self, Value};

/// Table I divisor used throughout: large enough that each job is around
/// a millisecond, so the suite stays fast.
const SCALE: u64 = 20_000;

fn base_config() -> RuntimeConfig {
    RuntimeConfig::builder()
        .num_workers(2)
        .num_combiners(1)
        .task_size(256)
        .queue_capacity(5000)
        .batch_size(500)
        .build()
        .expect("valid test config")
}

/// Boots a server on an ephemeral loopback port with the test base
/// config; returns the server and its dialable address.
fn boot(mutate: impl FnOnce(&mut ServeConfig)) -> (Server, String) {
    let mut config = ServeConfig { base: base_config(), ..ServeConfig::default() };
    config.addr = "127.0.0.1:0".into();
    config.max_pools = 8;
    mutate(&mut config);
    let server = Server::bind(config).expect("server binds loopback");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn wc_request() -> JobRequest {
    let mut request = JobRequest::new("wc");
    request.scale = SCALE;
    request
}

/// A word-count request against a private one-slot pool whose single job
/// runs long enough to hold the slot (scale 40x lower = 40x more input).
fn slow_one_slot_request() -> JobRequest {
    let mut request = wc_request();
    request.scale = SCALE / 40;
    request.knobs.push(("sched-queue".into(), "1".into()));
    request
}

/// Blocks until the one-slot pool's dispatcher has claimed everything
/// accepted so far: `queue_depth == 0` in `METRICS` means the job is
/// running, not waiting, and the slot is free for exactly one more submit.
/// Jobs only get faster; "the first job is surely running by now" is not
/// something a test may assume.
fn await_slot_claimed(client: &mut ServeClient) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = client.metrics().expect("metrics snapshot");
        let Some(Value::Arr(pools)) = metrics.get("pools") else {
            panic!("METRICS_REPORT missing pools array: {metrics:?}");
        };
        let one_slot = pools
            .iter()
            .find(|p| p.get("knobs").and_then(|k| k.get("sched-queue")).is_some())
            .expect("the one-slot pool is listed once its first job was accepted");
        if metric_u64(one_slot, "queue_depth") == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "dispatcher never claimed the queued job");
        std::thread::yield_now();
    }
}

/// In-process baseline: the same job the server runs for a [`wc_request`]
/// at `scale` on `backend`, scheduled through a [`JobScheduler`] and
/// rendered by the shared [`outcome_of`], so both sides of the differential
/// go through identical rendering and report construction.
fn in_process_outcome(backend: Backend, scale: u64) -> ramr_serve::JobOutcome {
    // Mirror the server's pool config: base + the app's default container.
    let config = base_config()
        .into_builder()
        .container(AppKind::WordCount.default_container())
        .build()
        .expect("baseline config");
    let spec = InputSpec::table1(AppKind::WordCount, Platform::Haswell, InputFlavor::Small);
    let input = Arc::new(wc_input(&spec, scale));
    let sched = JobScheduler::<WordCount>::new(backend, config.clone()).expect("baseline sched");
    let done = sched
        .client("baseline")
        .submit(Arc::new(WordCount), input)
        .expect("baseline submit")
        .wait()
        .expect("baseline job");
    outcome_of("wc", backend, &config, &done, true)
}

/// Pulls a named numeric field out of a metrics JSON tree.
fn metric_u64(metrics: &Value, field: &str) -> u64 {
    metrics.get(field).and_then(Value::as_u64).unwrap_or_else(|| panic!("metrics missing {field}"))
}

#[test]
fn socket_jobs_match_in_process_scheduler_on_every_backend() {
    let (server, addr) = boot(|_| {});
    let mut client = ServeClient::connect(&addr, "diff", None).expect("connect");
    for backend in Backend::ALL {
        let expected = in_process_outcome(backend, SCALE);
        let mut request = wc_request();
        request.backend = Some(backend.as_str().to_string());
        request.echo_output = true;
        let got = client.run_job(&request).expect("socket job completes");

        // Byte-identical output: same digest, same full rendering.
        assert_eq!(got.keys, expected.keys, "{backend}: key count diverged");
        assert_eq!(got.digest, expected.digest, "{backend}: digest diverged");
        assert_eq!(
            got.output.as_deref(),
            expected.rendered.as_deref(),
            "{backend}: echoed output is not byte-identical to the in-process run"
        );

        // Equivalent report accounting: everything deterministic in the
        // `--metrics-json` report must agree (timings legitimately differ).
        for field in ["workers", "combiners", "batch_size", "emit_buffer", "queue_capacity"] {
            assert_eq!(
                metric_u64(&got.metrics, field),
                metric_u64(&expected.metrics, field),
                "{backend}: report field {field} diverged"
            );
        }
        assert_eq!(
            got.metrics.get("emitted"),
            expected.metrics.get("emitted"),
            "{backend}: emitted-pair accounting diverged"
        );
        assert_eq!(
            got.metrics.get("faults"),
            expected.metrics.get("faults"),
            "{backend}: fault accounting diverged"
        );
        assert_eq!(
            got.metrics.get("app").and_then(Value::as_str),
            Some("wc"),
            "{backend}: report names the wrong app"
        );
        assert_eq!(
            got.metrics.get("runtime").and_then(Value::as_str),
            Some(backend.as_str()),
            "{backend}: report names the wrong runtime"
        );
    }
    drop(client);
    drop(server);
}

#[test]
fn overflow_is_shed_with_typed_reason_and_retry_hint() {
    let (server, addr) = boot(|_| {});
    let mut client = ServeClient::connect(&addr, "burst", None).expect("connect");
    let request = slow_one_slot_request();
    let slow_digest = in_process_outcome(Backend::RamrStatic, request.scale).digest;
    let first = client.submit(&request).expect("first submit runs");
    await_slot_claimed(&mut client);
    let second = client.submit(&request).expect("second submit queues");
    match client.submit(&request) {
        Err(ServeError::Shed { reason, retry_after_ms }) => {
            assert_eq!(reason, "queue-full", "one-slot overflow must shed as queue-full");
            assert!(retry_after_ms > 0, "shed must carry a positive retry hint");
        }
        other => panic!("third submit into a full one-slot queue: {other:?}"),
    }
    // The shed submit is gone, not queued: exactly the two accepted jobs
    // come back, in dispatch order.
    for expected in [first, second] {
        let result = client.next_result().expect("accepted job completes");
        assert_eq!(result.id, expected);
        assert_eq!(result.digest, slow_digest, "an accepted job diverged from the baseline");
    }
    // After the backlog drains, the same request is accepted again.
    let retried = client.run_job(&request).expect("retry after drain succeeds");
    assert_eq!(retried.digest, slow_digest, "the retried job diverged from the baseline");

    // A flood of connections into the same one-slot pool: every job rides
    // out its sheds and still matches the in-process digest, and the server
    // counts at least every queue-full shed a client saw.
    let mut flood = wc_request();
    flood.knobs = request.knobs.clone();
    let digest = in_process_outcome(Backend::RamrStatic, flood.scale).digest;
    let floods: Vec<_> = (0..2)
        .map(|c| {
            let (addr, flood, digest) = (addr.clone(), flood.clone(), digest.clone());
            std::thread::spawn(move || {
                let tenant = format!("flood-{c}");
                let mut client = ServeClient::connect(&addr, &tenant, None).expect("connect");
                let mut sheds = 0;
                for _ in 0..3 {
                    let result = client.run_job(&flood).expect("flood job completes");
                    assert_eq!(result.digest, digest, "{tenant}: a flood job diverged");
                    sheds += result.sheds;
                }
                sheds
            })
        })
        .collect();
    let seen = 1 + retried.sheds + floods.into_iter().map(|h| h.join().unwrap()).sum::<u64>();
    let metrics = client.metrics().expect("metrics snapshot");
    let Some(Value::Arr(pools)) = metrics.get("pools") else {
        panic!("METRICS_REPORT missing pools array: {metrics:?}");
    };
    let counted: u64 = pools
        .iter()
        .filter_map(|pool| match pool.get("tenants") {
            Some(Value::Arr(tenants)) => Some(tenants),
            _ => None,
        })
        .flatten()
        .map(|tenant| metric_u64(tenant, "shed_queue_full"))
        .sum();
    assert!(counted >= seen, "the server counted {counted} queue-full sheds, clients saw {seen}");
    drop(server);
}

#[test]
fn tenants_authenticate_with_the_shared_token() {
    let (server, addr) = boot(|c| c.token = Some("sesame".into()));

    let refused = ServeClient::connect(&addr, "alice", None);
    assert!(
        matches!(refused, Err(ServeError::Remote(_))),
        "handshake without the token must be refused: {refused:?}"
    );
    let refused = ServeClient::connect(&addr, "alice", Some("wrong"));
    assert!(
        matches!(refused, Err(ServeError::Remote(_))),
        "handshake with a bad token must be refused: {refused:?}"
    );

    let mut client = ServeClient::connect(&addr, "alice", Some("sesame")).expect("good token");
    let result = client.run_job(&wc_request()).expect("authenticated job runs");
    assert!(result.keys > 0);

    // SHUTDOWN is token-gated too: a bad token gets an ERROR and the
    // server keeps serving; the right token drains and closes.
    let refused = client.shutdown(Some("wrong"));
    assert!(matches!(refused, Err(ServeError::Remote(_))), "bad shutdown token: {refused:?}");
    let mut second = ServeClient::connect(&addr, "bob", Some("sesame")).expect("still serving");
    second.shutdown(Some("sesame")).expect("authorized shutdown");
    server.wait();
}

#[test]
fn poisoned_tenant_fails_alone() {
    let (server, addr) = boot(|c| c.chaos = true);
    let mut evil = ServeClient::connect(&addr, "evil", None).expect("evil connects");
    let mut good = ServeClient::connect(&addr, "good", None).expect("good connects");

    let before = good.run_job(&wc_request()).expect("good job before the poison");

    let poisoned = evil.run_job(&JobRequest::new(POISON_APP));
    assert!(
        matches!(poisoned, Err(ServeError::JobFailed(_))),
        "poison job must fail with JOB_ERROR: {poisoned:?}"
    );

    // The failure is contained: the good tenant's pool keeps serving with
    // identical results, and even the evil connection stays usable.
    let after = good.run_job(&wc_request()).expect("good job after the poison");
    assert_eq!(after.digest, before.digest, "poison leaked into another tenant's pool");
    let recovered = evil.run_job(&wc_request()).expect("evil connection survives its own poison");
    assert_eq!(recovered.digest, before.digest);
    drop(server);
}

#[test]
fn poison_app_requires_chaos_mode() {
    let (server, addr) = boot(|_| {});
    let mut client = ServeClient::connect(&addr, "curious", None).expect("connect");
    let refused = client.run_job(&JobRequest::new(POISON_APP));
    assert!(
        matches!(refused, Err(ServeError::JobFailed(_))),
        "poison must be rejected without chaos mode: {refused:?}"
    );
    drop(server);
}

#[test]
fn graceful_shutdown_drains_in_flight_and_sheds_queued_with_shutdown_error() {
    let (server, addr) = boot(|_| {});
    let mut worker = ServeClient::connect(&addr, "worker", None).expect("connect");
    let request = slow_one_slot_request();
    // One job running, one queued behind it in the one-slot queue.
    let running = worker.submit(&request).expect("first submit runs");
    await_slot_claimed(&mut worker);
    let queued = worker.submit(&request).expect("second submit queues");

    let mut operator = ServeClient::connect(&addr, "operator", None).expect("operator connects");
    operator.shutdown(None).expect("shutdown acknowledged with BYE");

    // The shutdown contract: every ACCEPTED id resolves to exactly one
    // terminal frame — a real RESULT for a job the dispatcher ran (the
    // in-flight epoch drains), a shutdown JOB_ERROR for a still-queued
    // ticket. The two waiter threads race onto the socket, so the order
    // (and, under load, which jobs the dispatcher got to) is not fixed.
    let mut completed = Vec::new();
    let mut shutdown_errors = 0;
    for _ in 0..2 {
        match worker.next_result() {
            Ok(result) => {
                assert!(
                    result.id == running || result.id == queued,
                    "RESULT for an id never submitted: {}",
                    result.id
                );
                completed.push(result.id);
            }
            Err(ServeError::JobFailed(message)) => {
                assert!(
                    message.contains("shut"),
                    "queued ticket should carry a shutdown error, got {message:?}"
                );
                shutdown_errors += 1;
            }
            Err(other) => panic!("ticket resolved oddly: {other}"),
        }
    }
    completed.dedup();
    assert_eq!(
        completed.len() + shutdown_errors,
        2,
        "every accepted id must get exactly one terminal frame"
    );
    // FIFO over a one-slot queue: the second job can only have completed
    // if the first did too.
    if completed.contains(&queued) {
        assert!(completed.contains(&running), "queued job ran but the running one vanished");
    }

    server.wait();
    // The listener is gone: new connections are refused.
    assert!(
        ServeClient::connect(&addr, "late", None).is_err(),
        "connections must be refused after shutdown"
    );
}

#[test]
fn metrics_endpoint_reports_pools_and_shed_breakdown() {
    let (server, addr) = boot(|_| {});
    let mut client = ServeClient::connect(&addr, "meter", None).expect("connect");
    client.run_job(&wc_request()).expect("job completes");

    let metrics = client.metrics().expect("metrics snapshot");
    assert_eq!(metrics.get("shutting_down"), Some(&Value::Bool(false)));
    let pools = match metrics.get("pools") {
        Some(Value::Arr(pools)) => pools,
        other => panic!("METRICS_REPORT missing pools array: {other:?}"),
    };
    let wc_pool = pools
        .iter()
        .find(|p| p.get("app").and_then(Value::as_str) == Some("wc"))
        .expect("wc pool is listed");
    assert!(metric_u64(wc_pool, "queue_capacity") > 0);
    let tenants = match wc_pool.get("tenants") {
        Some(Value::Arr(tenants)) => tenants,
        other => panic!("pool missing tenants array: {other:?}"),
    };
    let meter = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(Value::as_str) == Some("meter"))
        .expect("tenant accounting is listed");
    assert_eq!(metric_u64(meter, "submitted"), 1);
    assert_eq!(metric_u64(meter, "completed"), 1);
    // The typed shed breakdown rides the same report.
    for field in ["shed", "shed_queue_full", "shed_rate_limited", "shed_quota", "shed_saturated"] {
        assert_eq!(metric_u64(meter, field), 0, "{field} should be zero for a clean run");
    }
    // The resilience ledger rides as a top-level tenants section: dedup,
    // parking, reconnect, and rate-limit accounting per tenant.
    let ledgers = match metrics.get("tenants") {
        Some(Value::Arr(ledgers)) => ledgers,
        other => panic!("METRICS_REPORT missing top-level tenants array: {other:?}"),
    };
    let meter_ledger = ledgers
        .iter()
        .find(|t| t.get("tenant").and_then(Value::as_str) == Some("meter"))
        .expect("tenant ledger is listed");
    for field in ["reconnects", "dedup_hits", "parked", "expired", "rate_limited"] {
        assert_eq!(metric_u64(meter_ledger, field), 0, "{field} should be zero for a clean run");
    }
    // The clean run's one request_id is retained for replay until the
    // park TTL sweeps it.
    assert_eq!(metric_u64(meter_ledger, "ledger_in_flight"), 0);
    assert_eq!(metric_u64(meter_ledger, "ledger_entries"), 1);
    drop(server);
}

#[test]
fn per_job_knob_overrides_reach_the_pool() {
    let (server, addr) = boot(|_| {});
    let mut client = ServeClient::connect(&addr, "tuner", None).expect("connect");
    let mut request = wc_request();
    request.knobs.push(("workers".into(), "3".into()));
    request.knobs.push(("batch".into(), "250".into()));
    let result = client.run_job(&request).expect("tuned job completes");
    assert_eq!(metric_u64(&result.metrics, "workers"), 3, "workers override ignored");
    assert_eq!(metric_u64(&result.metrics, "batch_size"), 250, "batch override ignored");

    // An unknown knob is a job error, not a dead connection.
    let mut bad = wc_request();
    bad.knobs.push(("no-such-knob".into(), "1".into()));
    let refused = client.run_job(&bad);
    assert!(matches!(refused, Err(ServeError::JobFailed(_))), "unknown knob: {refused:?}");
    let still_fine = client.run_job(&wc_request()).expect("connection survives the refusal");
    assert!(still_fine.keys > 0);
    drop(server);
}

/// `outcome_of` builds its frame parts without a text round trip: the
/// digest streams the canonical lines through the hash, the rendering is
/// built only for an echo, and the metrics tree is the report's own
/// [`MetricsReport::to_value`]. All three must equal what the long way —
/// render, digest the string, write the report's JSON and parse it back —
/// produces, for every servable app, echo on and off, on both backends.
#[test]
fn outcome_of_matches_render_digest_and_parsed_metrics() {
    fn check<J: MapReduceJob + Send + 'static>(app: &str, job: J, input: Vec<J::Input>) {
        let kind = match app {
            "wc" => AppKind::WordCount,
            "hg" => AppKind::Histogram,
            "lr" => AppKind::LinearRegression,
            _ => AppKind::Kmeans,
        };
        let config =
            base_config().into_builder().container(kind.default_container()).build().unwrap();
        let (job, input) = (Arc::new(job), Arc::new(input));
        for backend in Backend::ALL {
            let sched = JobScheduler::<J>::new(backend, config.clone()).expect("scheduler opens");
            let done = sched
                .client("outcome")
                .submit(Arc::clone(&job), Arc::clone(&input))
                .expect("submit")
                .wait()
                .expect("job runs");
            let rendered = render_pairs(&done.output.pairs);
            let report = done.report.metrics(app, &config, &done.output.stats);
            let metrics = json::parse(&report.to_json()).expect("report JSON parses");
            for echo in [false, true] {
                let outcome = outcome_of(app, backend, &config, &done, echo);
                assert_eq!(outcome.keys, done.output.pairs.len() as u64, "{app} {backend}");
                assert_eq!(outcome.digest, digest64(&rendered), "{app} {backend} echo={echo}");
                assert_eq!(
                    outcome.rendered.as_deref(),
                    echo.then_some(rendered.as_str()),
                    "{app} {backend} echo={echo}"
                );
                assert_eq!(outcome.metrics, metrics, "{app} {backend} echo={echo}");
                assert_eq!(outcome.metrics.to_json(), report.to_json(), "{app} {backend}");
            }
        }
    }
    let spec = |kind| InputSpec::table1(kind, Platform::Haswell, InputFlavor::Small);
    check("wc", WordCount, wc_input(&spec(AppKind::WordCount), SCALE));
    check("hg", Histogram, hg_input(&spec(AppKind::Histogram), SCALE));
    check("lr", LinearRegression, lr_input(&spec(AppKind::LinearRegression), SCALE));
    let points = km_input(&spec(AppKind::Kmeans), SCALE);
    check("km", KmeansState::seeded(&points, 16).job(), points);
}

/// Writes one raw frame from `(name, value)` members.
fn raw_send(stream: &mut TcpStream, members: &[(&str, Value)]) -> std::io::Result<()> {
    let frame = Value::Obj(members.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect());
    proto::write_frame(stream, &frame, 1 << 20)
}

/// Reads raw frames until one of type `want` arrives (skipping others),
/// or panics after `within`.
fn raw_read(reader: &mut BufReader<TcpStream>, want: ResponseKind, within: Duration) -> Value {
    let deadline = Instant::now() + within;
    loop {
        assert!(Instant::now() < deadline, "no {want:?} frame within {within:?}");
        match proto::read_frame(reader, 16 << 20) {
            Ok(Some(frame)) if proto::frame_type(&frame).ok() == Some(want.as_str()) => {
                return frame
            }
            Ok(Some(_)) => {}
            Ok(None) => panic!("connection closed while waiting for {want:?}"),
            Err(e) if timed_out(&e) => {}
            Err(e) => panic!("read failed waiting for {want:?}: {e}"),
        }
    }
}

fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// A raw connection that has said `HELLO` as `tenant` and read `WELCOME`.
fn raw_connect(addr: &str, tenant: &str) -> (TcpStream, BufReader<TcpStream>) {
    let mut stream = TcpStream::connect(addr).expect("dial");
    stream.set_read_timeout(Some(Duration::from_millis(50))).expect("read timeout");
    raw_send(
        &mut stream,
        &[
            ("type", Value::Str(RequestKind::Hello.as_str().into())),
            ("tenant", Value::Str(tenant.into())),
            ("version", Value::Num(PROTOCOL_VERSION as f64)),
        ],
    )
    .expect("HELLO writes");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    raw_read(&mut reader, ResponseKind::Welcome, Duration::from_secs(10));
    (stream, reader)
}

/// The `SUBMIT` frame of [`wc_request`], with an id, an optional
/// `request_id` and the output echo on or off.
fn raw_submit(id: u64, rid: Option<&str>, echo: bool) -> Vec<(&'static str, Value)> {
    let mut members = vec![
        ("type", Value::Str(RequestKind::Submit.as_str().into())),
        ("id", Value::Num(id as f64)),
        ("app", Value::Str("wc".into())),
        ("scale", Value::Num(SCALE as f64)),
        ("echo_output", Value::Bool(echo)),
    ];
    if let Some(rid) = rid {
        members.push(("request_id", Value::Str(rid.into())));
    }
    members
}

/// The ledger counters of `tenant` in a `METRICS_REPORT`, if listed.
fn ledger_of(metrics: &Value, tenant: &str) -> Option<Value> {
    match metrics.get("tenants") {
        Some(Value::Arr(tenants)) => tenants
            .iter()
            .find(|t| t.get("tenant").and_then(Value::as_str) == Some(tenant))
            .cloned(),
        other => panic!("METRICS_REPORT missing tenants array: {other:?}"),
    }
}

/// A client that submits and then stops reading cannot hold any server
/// thread on its socket past the write deadline: it is kicked within the
/// deadline plus slack, another tenant's jobs on the same pool keep
/// completing meanwhile, and the stalled tenant's terminal frames park in
/// the dedup ledger and replay — without running again — when it reclaims
/// them from a new connection.
#[test]
fn a_client_that_stops_reading_is_kicked_and_its_results_park() {
    /// The server's per-frame write deadline.
    const WRITE_DEADLINE: Duration = Duration::from_secs(5);
    /// Time for the stalled socket's buffers to fill, plus scheduling.
    const SLACK: Duration = Duration::from_secs(7);

    let (server, addr) = boot(|_| {});
    let (mut stalled, stalled_reader) = raw_connect(&addr, "stalled");
    // Echoed results fill the socket buffers quickly; nothing reads them.
    drop(stalled_reader);
    let started = Instant::now();
    let submitter = std::thread::spawn(move || {
        let mut sent = 0u64;
        while started.elapsed() < WRITE_DEADLINE + SLACK + SLACK {
            let rid = format!("stall-{sent}");
            if raw_send(&mut stalled, &raw_submit(sent, Some(&rid), true)).is_err() {
                break; // the server has let go of the connection
            }
            sent += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        sent
    });

    // The steady tenant shares the stalled tenant's pool.
    let mut steady = ServeClient::connect(&addr, "steady", None).expect("steady connects");
    let mut completed = 0u64;
    let mut slowest = Duration::ZERO;
    let digest = loop {
        let sent = Instant::now();
        let result = steady.run_job(&wc_request()).expect("the steady tenant keeps being served");
        slowest = slowest.max(sent.elapsed());
        completed += 1;
        let metrics = steady.metrics().expect("metrics snapshot");
        let parked = ledger_of(&metrics, "stalled").map_or(0, |l| metric_u64(&l, "parked"));
        if parked >= 1 {
            break result.digest;
        }
        assert!(
            started.elapsed() < WRITE_DEADLINE + SLACK,
            "the stalled client was not kicked within {:?}",
            WRITE_DEADLINE + SLACK
        );
    };
    let kicked_after = started.elapsed();
    assert!(completed >= 3, "only {completed} steady jobs completed in {kicked_after:?}");
    assert!(slowest < WRITE_DEADLINE, "a steady job waited {slowest:?} behind the stalled socket");

    // Once the kicked connection's jobs have all resolved, every one the
    // scheduler ran has a terminal frame in the ledger.
    let sent = submitter.join().expect("submitter");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = steady.metrics().expect("metrics snapshot");
        let ledger = ledger_of(&metrics, "stalled").expect("the stalled tenant has a ledger");
        if metric_u64(&ledger, "ledger_in_flight") == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "the kicked connection's jobs never resolved");
        std::thread::sleep(Duration::from_millis(20));
    }
    let executed: Vec<String> =
        server.execution_ledger().into_iter().filter(|t| t.starts_with("stalled:")).collect();
    assert!(!executed.is_empty(), "none of {sent} stalled submits ran");

    // Reclaim the last few: each replays its RESULT, echo and all, and
    // nothing runs again.
    let (mut again, mut again_reader) = raw_connect(&addr, "stalled");
    for tag in executed.iter().rev().take(4) {
        let rid = tag.trim_start_matches("stalled:");
        raw_send(&mut again, &raw_submit(0, Some(rid), true)).expect("reclaim writes");
        raw_read(&mut again_reader, ResponseKind::Accepted, Duration::from_secs(10));
        let replayed = raw_read(&mut again_reader, ResponseKind::Result, Duration::from_secs(10));
        assert_eq!(replayed.get("request_id").and_then(Value::as_str), Some(rid));
        assert_eq!(replayed.get("digest").and_then(Value::as_str), Some(digest.as_str()));
        assert!(replayed.get("output").and_then(Value::as_str).is_some_and(|o| !o.is_empty()));
    }
    let after: Vec<String> =
        server.execution_ledger().into_iter().filter(|t| t.starts_with("stalled:")).collect();
    assert_eq!(after, executed, "a reclaim must replay, not re-execute");
    drop(server);
}

/// One connection, many writers: overlapping `SUBMIT`s sent without
/// waiting, interleaved with `METRICS`, so the connection thread's
/// in-place `ACCEPTED`/`METRICS_REPORT` writes, the job waiters' in-place
/// `RESULT` writes and the writer thread's backlog drain all race for the
/// socket. Every frame must arrive whole, the direct replies (one per
/// request) in request order, each id's `ACCEPTED` before its `RESULT`,
/// and every request must be answered exactly once.
#[test]
fn concurrent_senders_never_tear_or_reorder_a_connections_frames() {
    const ROUNDS: u64 = 4;
    const SUBMITS: u64 = 48;
    let (server, addr) = boot(|_| {});
    let (mut stream, mut reader) = raw_connect(&addr, "racer");
    for round in 0..ROUNDS {
        // The direct replies, in the order they must arrive: `S<id>` for
        // a SUBMIT (ACCEPTED or RETRY_AFTER), `M` for a METRICS.
        let mut requests = Vec::new();
        for id in round * 100..round * 100 + SUBMITS {
            // Half carry a request_id, so deliveries also go through the
            // ledger; half echo their output, so frame sizes differ.
            let rid = format!("race-{id}");
            let submit = raw_submit(id, (id % 2 == 0).then_some(rid.as_str()), id % 3 != 0);
            raw_send(&mut stream, &submit).expect("SUBMIT writes");
            requests.push(format!("S{id}"));
            if id % 4 == 0 {
                let metrics = [("type", Value::Str(RequestKind::Metrics.as_str().into()))];
                raw_send(&mut stream, &metrics).expect("METRICS writes");
                requests.push("M".to_string());
            }
        }

        let mut replies = Vec::new();
        let mut accepted = std::collections::BTreeSet::new();
        let mut terminal = std::collections::BTreeSet::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        while replies.len() < requests.len() || terminal.len() < accepted.len() {
            assert!(Instant::now() < deadline, "answers missing: {replies:?} {terminal:?}");
            let frame = match proto::read_frame(&mut reader, 16 << 20) {
                Ok(Some(frame)) => frame,
                Ok(None) => panic!("server closed the connection"),
                Err(e) if timed_out(&e) => continue,
                Err(e) => panic!("a frame did not arrive whole: {e}"),
            };
            let kind = proto::frame_type(&frame).expect("typed frame");
            let id = frame.get("id").and_then(Value::as_u64);
            match ResponseKind::from_wire(kind) {
                Some(ResponseKind::Accepted) => {
                    let id = id.expect("ACCEPTED carries its id");
                    assert!(!terminal.contains(&id), "id {id}: RESULT before ACCEPTED");
                    assert!(accepted.insert(id), "id {id} accepted twice");
                    replies.push(format!("S{id}"));
                }
                Some(ResponseKind::RetryAfter) => {
                    replies.push(format!("S{}", id.expect("RETRY_AFTER carries its id")));
                }
                Some(ResponseKind::MetricsReport) => replies.push("M".to_string()),
                Some(ResponseKind::Result) => {
                    let id = id.expect("RESULT carries its id");
                    assert!(accepted.contains(&id), "id {id}: RESULT before ACCEPTED");
                    assert!(terminal.insert(id), "id {id} answered twice");
                    assert!(frame.get("digest").and_then(Value::as_str).is_some());
                }
                _ => panic!("unexpected frame {frame:?}"),
            }
        }
        assert_eq!(replies, requests, "round {round}: direct replies out of request order");
        assert_eq!(accepted, terminal, "round {round}: every accepted id gets one RESULT");
    }
    drop(stream);
    drop(server);
}
