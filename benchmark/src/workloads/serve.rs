//! The three served workloads, over one `moma_serve::Server` of fixed shape.
//!
//! * `serve_small_steady` — open loop at a fixed rate well under capacity:
//!   requests are tiny, so what a caller waits for is queueing, the batch
//!   window and wake-ups in `moma-serve`, not arithmetic. The latency workload.
//! * `serve_small_saturated` — the same requests from a closed loop that keeps
//!   the queue three-quarters full and never overflows it: `ops_per_s` is the
//!   server's capacity and batches run full. A batching change that buys
//!   capacity here by holding requests longer shows its price on the steady
//!   workload.
//! * `serve_ladder_closed` — ladder steps at n = 4096 from callers that wait
//!   for each reply: large, compute-heavy requests whose batches share only a
//!   plan lookup, with the CRT codec running on the single worker.

use super::ladder::{ring_codec_probes, LEVELS, N as LADDER_N};
use super::{common_layers, median_us, random_values, Traced, Workload};
use crate::metrics::Layers;
use crate::oracle;
use crate::stats::{median, percentile, Window};
use crate::trace::{self, span_in, Scope, Span, Tracer};
use moma::bignum::BigUint;
use moma::rns::RnsContext;
use moma::{NttSpace, RingSpace, RnsSpace, Session};
use moma_serve::{
    Client, Response, RingTenantId, ServeConfig, ServeError, Server, TenantId, Ticket, WorkItem,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The server every served workload runs against. Constants, not flags: two
/// results are comparable only if the server they loaded was the same.
fn server_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 16,
        min_batch: 1,
        batch_window: Duration::from_millis(1),
        queue_depth: 64,
        ..ServeConfig::default()
    }
}

/// How requests are offered.
#[derive(Clone, Copy)]
pub enum Load {
    /// Sent on a fixed schedule whether or not earlier ones have completed:
    /// independent callers. Requests per second.
    Open(f64),
    /// Each of `clients` threads keeps `in_flight` requests outstanding and
    /// sends the next when its oldest completes: callers that wait for replies.
    Closed { clients: usize, in_flight: usize },
}

/// Open-loop rate of `serve_small_steady`: a bit under half of what this
/// server sustained on the 2-core host the workload was sized on. Never
/// probed at run time, or two runs would not offer the same load.
const STEADY_RATE: f64 = 3000.0;
/// Rate of the overload probe in `serve_small_saturated`'s traced pass: more
/// than twice capacity, so admission control has to shed.
const OVERLOAD_RATE: f64 = 16000.0;
const OVERLOAD_BURST: Duration = Duration::from_millis(500);
/// Requests the traced pass replays directly on a session.
const REPLAYED: u64 = 64;
/// 48 outstanding against a queue of 64: always enough queued to fill a
/// batch of 16, never enough to be shed.
const SATURATED: Load = Load::Closed {
    clients: 2,
    in_flight: 24,
};
const LADDER_CLOSED: Load = Load::Closed {
    clients: 2,
    in_flight: 4,
};

/// A stream of requests with known answers.
pub trait Mix: Sync + Sized {
    const LOAD: Load;
    /// Requests sent (and awaited) at the end of set-up.
    const WARM_UP_REQUESTS: u64;
    /// Whether the traced pass ends with the open-loop overload probe.
    const OVERLOAD_PROBE: bool = false;

    /// Registers tenants on `server` and generates payloads from `seed`.
    fn build(server: &Server, seed: u64) -> Self;
    /// Computes and checks every expected response, on a session of its own.
    /// `correct`, `replay` and `probes` may be called only after this.
    fn verify(&mut self);
    /// Request `i` of the stream.
    fn request(&self, i: u64) -> WorkItem;
    /// Whether `response` is the right answer to request `i`.
    fn correct(&self, i: u64, response: &Response) -> bool;
    /// Executes request `i` directly on a session, with spans around
    /// encode, execute and decode.
    fn replay(&self, i: u64, scope: Scope<'_>);
    /// Probes of the layers under this traffic.
    fn probes(&self, layers: &mut Layers);
}

// ---------------------------------------------------------------------------
// Small requests: 7/8 forward NTT (n = 1024), 1/8 fused RNS chain on 4 elements.
// ---------------------------------------------------------------------------

const SMALL_N: usize = 1024;
const SMALL_NTT_PAYLOADS: usize = 56;
const SMALL_RNS_PAYLOADS: usize = 8;
const SMALL_RNS_ELEMENTS: usize = 4;

pub struct Small<const OPEN_LOOP: bool> {
    q: u64,
    moduli: Vec<u64>,
    tenant: TenantId,
    transforms: Vec<Vec<u64>>,
    chains: Vec<(Vec<BigUint>, Vec<BigUint>)>,
    reference: Option<SmallReference>,
}

/// The inline side of the small requests: spaces on a session of the
/// benchmark's own, and the expected response to every payload.
struct SmallReference {
    ntt: NttSpace,
    src: RnsSpace,
    dst: RnsSpace,
    transforms: Vec<Vec<u64>>,
    chains: Vec<Vec<BigUint>>,
}

impl<const OPEN_LOOP: bool> Small<OPEN_LOOP> {
    /// Every eighth request is a chain; payloads cycle.
    fn chain_index(i: u64) -> Option<usize> {
        (i % 8 == 7).then_some((i / 8) as usize % SMALL_RNS_PAYLOADS)
    }

    fn reference(&self) -> &SmallReference {
        self.reference
            .as_ref()
            .expect("verify ran before the windows")
    }
}

impl<const OPEN_LOOP: bool> Mix for Small<OPEN_LOOP> {
    const LOAD: Load = if OPEN_LOOP {
        Load::Open(STEADY_RATE)
    } else {
        SATURATED
    };
    const WARM_UP_REQUESTS: u64 = 64;
    const OVERLOAD_PROBE: bool = !OPEN_LOOP;

    fn build(server: &Server, seed: u64) -> Self {
        let session = server.session();
        let q = session.ntt_default(SMALL_N).modulus();
        let src = session.rns_with_capacity(128);
        let moduli = src.moduli();
        let tenant = server.register_tenant(&moduli, &moduli[..4]);
        let mut rng = StdRng::seed_from_u64(seed);
        let transforms = (0..SMALL_NTT_PAYLOADS)
            .map(|_| (0..SMALL_N).map(|_| rng.gen_range(0..q)).collect())
            .collect();
        let chains = (0..SMALL_RNS_PAYLOADS)
            .map(|_| {
                let a = random_values(&mut rng, SMALL_RNS_ELEMENTS, src.product());
                let b = random_values(&mut rng, SMALL_RNS_ELEMENTS, src.product());
                (a, b)
            })
            .collect();
        Small {
            q,
            moduli,
            tenant,
            transforms,
            chains,
            reference: None,
        }
    }

    fn verify(&mut self) {
        let session = Session::default();
        let ntt = session.ntt(self.q, SMALL_N);
        // The inline plan, not the stage launcher the server uses.
        let transforms: Vec<Vec<u64>> = self
            .transforms
            .iter()
            .map(|payload| {
                let mut expected = payload.clone();
                ntt.forward(&mut expected);
                expected
            })
            .collect();
        let big = |v: &[u64]| -> Vec<BigUint> { v.iter().map(|&x| BigUint::from(x)).collect() };
        let omega = BigUint::from(ntt.plan().stage(true, SMALL_N / 2).twiddles[1]);
        let payload = big(&self.transforms[0]);
        for k in [0, 1, SMALL_N / 2 + 3, SMALL_N - 1] {
            assert!(
                BigUint::from(transforms[0][k])
                    == oracle::dft_coeff(&BigUint::from(self.q), &omega, &payload, k),
                "transform output {k} diverged from the DFT definition"
            );
        }
        let src_ref = RnsContext::with_moduli(&self.moduli);
        let dst_ref = RnsContext::with_moduli(&self.moduli[..4]);
        let chains = self
            .chains
            .iter()
            .map(|(a, b)| oracle::mul_rescale_extend(&src_ref, &dst_ref, a, b))
            .collect();
        self.reference = Some(SmallReference {
            ntt,
            src: session.rns(&self.moduli),
            dst: session.rns(&self.moduli[..4]),
            transforms,
            chains,
        });
    }

    fn request(&self, i: u64) -> WorkItem {
        match Self::chain_index(i) {
            Some(c) => WorkItem::RnsMulRescaleExtend {
                tenant: self.tenant,
                a: self.chains[c].0.clone(),
                b: self.chains[c].1.clone(),
            },
            None => WorkItem::NttForward {
                q: self.q,
                n: SMALL_N,
                data: self.transforms[i as usize % SMALL_NTT_PAYLOADS].clone(),
            },
        }
    }

    fn correct(&self, i: u64, response: &Response) -> bool {
        let expected = self.reference();
        match (Self::chain_index(i), response) {
            (Some(c), Response::Rns(got)) => *got == expected.chains[c],
            (None, Response::Ntt(got)) => {
                *got == expected.transforms[i as usize % SMALL_NTT_PAYLOADS]
            }
            _ => false,
        }
    }

    fn replay(&self, i: u64, scope: Scope<'_>) {
        let inline = self.reference();
        match Self::chain_index(i) {
            Some(c) => {
                let (a, b) = &self.chains[c];
                let (a, b) = scope.span("inline.encode", || {
                    (inline.src.encode(a), inline.src.encode(b))
                });
                let out = scope.span("inline.execute", || {
                    a.mul_rescale_then_extend(&b, &inline.dst)
                });
                scope.span("inline.decode", || std::hint::black_box(out.to_biguints()));
            }
            None => {
                let mut data = self.transforms[i as usize % SMALL_NTT_PAYLOADS].clone();
                scope.span("inline.execute", || inline.ntt.forward_batch(&mut data));
            }
        }
    }

    fn probes(&self, layers: &mut Layers) {
        let ntt = &self.reference().ntt;
        let mut batch = self.transforms[..16].concat();
        let mut stage_launches = 0;
        layers.set(
            "ntt.launcher_batch16_fwd_us.n1024",
            median_us(50, || {
                stage_launches = ntt.forward_batch(&mut batch).launches
            }),
        );
        layers.set("ntt.stage_launches_per_transform", stage_launches as f64);
    }
}

// ---------------------------------------------------------------------------
// Ladder steps at n = 4096, cycling levels 0–3 of the 8-level ladder.
// ---------------------------------------------------------------------------

const SERVED_LEVELS: usize = 4;

pub struct LadderSteps {
    moduli: Vec<u64>,
    tenant: RingTenantId,
    /// Both operands of every served level.
    levels: Vec<(Vec<BigUint>, Vec<BigUint>)>,
    /// The inline ring, and the expected next-level coefficients per level.
    reference: Option<(RingSpace, Vec<Vec<BigUint>>)>,
}

impl LadderSteps {
    fn reference(&self) -> &(RingSpace, Vec<Vec<BigUint>>) {
        self.reference
            .as_ref()
            .expect("verify ran before the windows")
    }
}

impl Mix for LadderSteps {
    const LOAD: Load = LADDER_CLOSED;
    const WARM_UP_REQUESTS: u64 = 4;

    fn build(server: &Server, seed: u64) -> Self {
        let moduli = moma::ring::default_ladder(LADDER_N, LEVELS);
        let tenant = server.register_ring_tenant(LADDER_N, &moduli);
        let space = server.session().ring(LADDER_N, &moduli);
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = (0..SERVED_LEVELS)
            .map(|level| {
                let a = random_values(&mut rng, LADDER_N, space.product(level));
                let b = random_values(&mut rng, LADDER_N, space.product(level));
                (a, b)
            })
            .collect();
        LadderSteps {
            moduli,
            tenant,
            levels,
            reference: None,
        }
    }

    fn verify(&mut self) {
        let space = Session::default().ring(LADDER_N, &self.moduli);
        let sampled = [0, 1, LADDER_N / 2 + 3, LADDER_N - 1];
        let expected = self
            .levels
            .iter()
            .enumerate()
            .map(|(level, (a, b))| {
                let (next, _) = space.ladder_step(&space.encode(level, a), &space.encode(level, b));
                let expected = space.decode(&next);
                let reference = oracle::ladder_level_coeffs(&self.moduli, level, a, b, &sampled);
                for (k, reference) in sampled.iter().zip(reference) {
                    assert!(
                        expected[*k] == reference,
                        "level {level} coefficient {k} diverged from the BigUint definition"
                    );
                }
                expected
            })
            .collect();
        self.reference = Some((space, expected));
    }

    fn request(&self, i: u64) -> WorkItem {
        let level = i as usize % SERVED_LEVELS;
        WorkItem::LadderStep {
            tenant: self.tenant,
            level,
            a: self.levels[level].0.clone(),
            b: self.levels[level].1.clone(),
        }
    }

    fn correct(&self, i: u64, response: &Response) -> bool {
        matches!(response, Response::Ladder(got) if *got == self.reference().1[i as usize % SERVED_LEVELS])
    }

    fn replay(&self, i: u64, scope: Scope<'_>) {
        let level = i as usize % SERVED_LEVELS;
        let (space, _) = self.reference();
        let (a, b) = &self.levels[level];
        let (a, b) = scope.span("inline.encode", || {
            (space.encode(level, a), space.encode(level, b))
        });
        let (next, _) = scope.span("inline.execute", || space.ladder_step(&a, &b));
        scope.span("inline.decode", || {
            std::hint::black_box(space.decode(&next))
        });
    }

    fn probes(&self, layers: &mut Layers) {
        ring_codec_probes(layers, &self.reference().0, &self.levels[0].0);
    }
}

// ---------------------------------------------------------------------------
// Load generators
// ---------------------------------------------------------------------------

/// A request on its way: the ticket, the instant latency counts from, its
/// index in the stream, and where its spans go when traced.
type InFlight<'a> = (Ticket, Instant, u64, Option<Scope<'a>>);

/// Opens request `i`'s span, starting at `from`.
fn open_request(tracer: Option<&Tracer>, i: u64, from: Instant) -> Option<Scope<'_>> {
    tracer.map(|tracer| Scope {
        tracer,
        parent: tracer.begin_at("serve.request", None, i, from),
        op: i,
    })
}

/// One `Client::submit` of request `i`. `Err` means the server shed it.
///
/// # Panics
///
/// Panics if the server refuses the request for any reason but load.
fn submit<M: Mix>(
    mix: &M,
    client: &Client,
    i: u64,
    scope: Option<Scope<'_>>,
) -> Result<Ticket, ()> {
    let item = mix.request(i);
    span_in(scope, "serve.submit", || client.submit(item)).map_err(|error| {
        assert!(
            error == ServeError::Overloaded,
            "request {i} was refused for a reason other than load: {error}"
        );
    })
}

/// Waits for a request and records it.
fn reap<M: Mix>(mix: &M, (ticket, from, i, scope): InFlight<'_>, w: &mut Window) {
    let result = span_in(scope, "serve.wait", || ticket.wait());
    if let Some(s) = scope {
        s.tracer.end(s.parent);
    }
    let ms = from.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(done) if mix.correct(i, &done.response) => w.op_ms.push(ms),
        Ok(_) => w.mismatched += 1,
        Err(_) => w.failed += 1,
    }
}

fn merge(parts: Vec<Window>, elapsed: Duration) -> Window {
    let mut w = Window {
        elapsed,
        ..Window::default()
    };
    for p in parts {
        w.attempted += p.attempted;
        w.failed += p.failed;
        w.mismatched += p.mismatched;
        w.op_ms.extend(p.op_ms);
    }
    w
}

/// Closed loop: each client thread keeps `in_flight` requests outstanding for
/// `length`, then collects what is left.
pub fn closed_loop<M: Mix>(
    mix: &M,
    client: &Client,
    clients: usize,
    in_flight: usize,
    length: Duration,
    tracer: Option<&Tracer>,
) -> Window {
    let started = Instant::now();
    let parts = std::thread::scope(|s| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut w = Window::default();
                    let mut pending: VecDeque<InFlight> = VecDeque::new();
                    let mut sent = 0u64;
                    loop {
                        while pending.len() < in_flight && started.elapsed() < length {
                            let i = sent * clients as u64 + c as u64;
                            sent += 1;
                            w.attempted += 1;
                            let from = Instant::now();
                            let scope = open_request(tracer, i, from);
                            match submit(mix, client, i, scope) {
                                Ok(ticket) => pending.push_back((ticket, from, i, scope)),
                                Err(()) => w.failed += 1,
                            }
                        }
                        match pending.pop_front() {
                            Some(oldest) => reap(mix, oldest, &mut w),
                            None => break w,
                        }
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    merge(parts, started.elapsed())
}

/// What the sender of an open loop does with a request the server sheds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum OnShed {
    /// Back off and send it again until it is accepted, as a caller that needs
    /// its answer does. The request's time keeps running from when it was due,
    /// and the requests behind it go out late.
    Retry,
    /// Give it up: the request has failed.
    Drop,
}

/// How long a sender waits before it offers a shed request again.
const SHED_BACKOFF: Duration = Duration::from_millis(1);

/// What an open-loop window saw besides its requests.
pub struct OpenLoop {
    /// How long after it was due each request was first sent, in milliseconds.
    pub late_ms: Vec<f64>,
    /// Submissions the server shed, retried or not.
    pub shed: u64,
    /// Requests outstanding on the server when the last one had been sent.
    pub backlog_end: u64,
}

/// Open loop: one thread sends `rate × length` requests on schedule, one
/// reaps them in order. A request's time runs from the instant it was *due*,
/// so a generator that falls behind — stalled, or backing off from a full
/// queue — lengthens what it records instead of hiding the wait.
pub fn open_loop<M: Mix>(
    mix: &M,
    server: &Server,
    rate: f64,
    length: Duration,
    on_shed: OnShed,
    tracer: Option<&Tracer>,
) -> (Window, OpenLoop) {
    let client = server.client();
    let total = (rate * length.as_secs_f64()).round() as u64;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<InFlight>();
    let started = Instant::now();
    std::thread::scope(|s| {
        let reaper = s.spawn(move || {
            let mut w = Window::default();
            for request in rx {
                reap(mix, request, &mut w);
            }
            w
        });
        let mut sent = Window::default();
        let mut late_ms = Vec::with_capacity(total as usize);
        let mut shed = 0;
        for i in 0..total {
            let due = started + interval.mul_f64(i as f64);
            if let Some(early) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(early);
            }
            late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            sent.attempted += 1;
            let scope = open_request(tracer, i, due);
            loop {
                match submit(mix, &client, i, scope) {
                    Ok(ticket) => {
                        tx.send((ticket, due, i, scope))
                            .expect("the reaper outlives the generator");
                        break;
                    }
                    Err(()) => shed += 1,
                }
                if on_shed == OnShed::Drop {
                    sent.failed += 1;
                    break;
                }
                std::thread::sleep(SHED_BACKOFF);
            }
        }
        let backlog_end = server.stats().outstanding;
        drop(tx);
        let reaped = reaper.join().expect("reaper thread");
        let window = merge(vec![sent, reaped], started.elapsed());
        let extras = OpenLoop {
            late_ms,
            shed,
            backlog_end,
        };
        (window, extras)
    })
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

pub struct Served<M: Mix> {
    server: Server,
    mix: M,
    cold_build: Duration,
    /// The open loop's last window, if the load is one.
    last_open: Option<OpenLoop>,
}

pub type ServeSmallSteady = Served<Small<true>>;
pub type ServeSmallSaturated = Served<Small<false>>;
pub type ServeLadderClosed = Served<LadderSteps>;

impl<M: Mix> Served<M> {
    fn run(&mut self, length: Duration, tracer: Option<&Tracer>) -> Window {
        match M::LOAD {
            Load::Open(rate) => {
                let (window, extras) =
                    open_loop(&self.mix, &self.server, rate, length, OnShed::Retry, tracer);
                self.last_open = Some(extras);
                window
            }
            Load::Closed { clients, in_flight } => closed_loop(
                &self.mix,
                &self.server.client(),
                clients,
                in_flight,
                length,
                tracer,
            ),
        }
    }
}

/// Indices that between them request every kind of work a mix has.
const KINDS: [u64; 2] = [0, 7];

impl<M: Mix> Workload for Served<M> {
    fn setup(seed: u64) -> Self {
        let started = Instant::now();
        let server = Server::new(Session::default(), server_config());
        let mix = M::build(&server, seed);
        let client = server.client();
        // One request of each kind builds the server's plans and kernels.
        for i in KINDS {
            client.call(mix.request(i)).expect("first request");
        }
        let cold_build = started.elapsed();
        for i in 0..M::WARM_UP_REQUESTS {
            client.call(mix.request(i)).expect("warm-up request");
        }
        Served {
            server,
            mix,
            cold_build,
            last_open: None,
        }
    }

    fn verify(&mut self) {
        self.mix.verify();
        let client = self.server.client();
        for i in KINDS {
            let done = client.call(self.mix.request(i)).expect("checked request");
            assert!(
                self.mix.correct(i, &done.response),
                "served result diverged from its reference"
            );
        }
    }

    fn window(&mut self, length: Duration) -> Window {
        self.run(length, None)
    }

    fn trace(&mut self, length: Duration, layers: &mut Layers) -> (Window, Vec<Span>) {
        let session = self.server.session().clone();
        let pool_before = session.pool().stats();
        let plain = self.run(length, None);
        let pool_allocs = session.pool().stats().misses_since(&pool_before);

        let tracer = Tracer::new();
        let before = self.server.stats();
        let traced = self.run(length, Some(&tracer));
        let after = self.server.stats();
        // The same requests, executed directly on a session.
        for i in 0..REPLAYED {
            let parent = tracer.begin("inline.request", None, i);
            self.mix.replay(
                i,
                Scope {
                    tracer: &tracer,
                    parent,
                    op: i,
                },
            );
            tracer.end(parent);
        }
        let spans = tracer.into_spans();

        let completed = (after.completed - before.completed).max(1) as f64;
        common_layers(
            layers,
            Traced {
                session: &session,
                cold_build: self.cold_build,
                launches_per_op: (after.launches - before.launches) as f64 / completed,
                pool_allocs_per_op: pool_allocs as f64 / plain.attempted.max(1) as f64,
                plain: &plain,
                traced: &traced,
            },
        );
        layers.set(
            "serve.plane_allocs_per_req",
            (after.plane_allocs - before.plane_allocs) as f64 / completed,
        );
        layers.set(
            "serve.avg_batch",
            completed / (after.batches - before.batches).max(1) as f64,
        );
        layers.set(
            "serve.coalesced_share",
            (after.coalesced_requests - before.coalesced_requests) as f64 / completed,
        );
        let submissions = (after.shed - before.shed) + (after.submitted - before.submitted);
        layers.set(
            "serve.shed_share",
            (after.shed - before.shed) as f64 / submissions.max(1) as f64,
        );
        layers.set(
            "serve.submit_us",
            median(&trace::durations_ms(&spans, "serve.submit")) * 1e3,
        );
        let inline_exec_ms = median(&trace::durations_ms(&spans, "inline.request"));
        layers.set("serve.inline_exec_ms", inline_exec_ms);
        layers.set(
            "serve.overhead_ms",
            traced.percentile_ms(0.5) - inline_exec_ms,
        );
        let self_ms = trace::self_ms_by_name(&spans);
        let codec_ms: f64 = ["inline.encode", "inline.decode"]
            .iter()
            .filter_map(|name| self_ms.get(name))
            .sum();
        layers.set("serve.codec_ms_per_req", codec_ms / REPLAYED as f64);
        layers.set("serve.op_ms_p99", traced.percentile_ms(0.99));
        if let Some(open) = &mut self.last_open {
            open.late_ms.sort_by(f64::total_cmp);
            layers.set("serve.gen_late_ms_p99", percentile(&open.late_ms, 0.99));
            layers.set("serve.backlog_end", open.backlog_end as f64);
        }
        self.mix.probes(layers);

        if M::OVERLOAD_PROBE {
            // Not part of the workload (every one of its requests must succeed):
            // a short burst far above capacity, to read off how much admission
            // control sheds.
            let (burst, extras) = open_loop(
                &self.mix,
                &self.server,
                OVERLOAD_RATE,
                OVERLOAD_BURST,
                OnShed::Drop,
                None,
            );
            assert!(
                burst.mismatched == 0,
                "a request accepted under overload was answered wrongly"
            );
            layers.set(
                "serve.shed_share",
                extras.shed as f64 / burst.attempted as f64,
            );
        }
        (traced, spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eight-point transforms whose fourth request takes 60 ms to produce:
    /// a generator that stalls.
    struct Stalls {
        ntt: NttSpace,
    }

    const STALLED: u64 = 3;
    const STALL: Duration = Duration::from_millis(60);

    impl Mix for Stalls {
        const LOAD: Load = Load::Open(200.0);
        const WARM_UP_REQUESTS: u64 = 0;

        fn build(_: &Server, _: u64) -> Self {
            Stalls {
                ntt: Session::default().ntt_default(8),
            }
        }

        fn verify(&mut self) {}

        fn request(&self, i: u64) -> WorkItem {
            if i == STALLED {
                std::thread::sleep(STALL);
            }
            WorkItem::NttForward {
                q: self.ntt.modulus(),
                n: 8,
                data: vec![1, 2, 3, 4, 5, 6, 7, 0],
            }
        }

        fn correct(&self, _: u64, response: &Response) -> bool {
            let mut expected = vec![1, 2, 3, 4, 5, 6, 7, 0];
            self.ntt.forward(&mut expected);
            *response == Response::Ntt(expected)
        }

        fn replay(&self, _: u64, _: Scope<'_>) {}

        fn probes(&self, _: &mut Layers) {}
    }

    #[test]
    fn a_stalled_generator_lengthens_the_latency_it_records() {
        let server = Server::new(Session::default(), server_config());
        let mix = Stalls::build(&server, 0);
        // 20 requests, 5 ms apart. The fourth is due at 15 ms and takes 60 ms
        // to build, so it and the requests that come due meanwhile go out late.
        let (w, extras) = open_loop(
            &mix,
            &server,
            200.0,
            Duration::from_millis(100),
            OnShed::Retry,
            None,
        );
        assert_eq!((w.attempted, w.failed, w.mismatched), (20, 0, 0));
        // Timed from the send instant, every request would read a millisecond
        // or two. Timed from the due instant, the stall is in the record.
        let slow = |ms: f64| w.op_ms.iter().filter(|&&t| t >= ms).count();
        assert!(slow(STALL.as_secs_f64() * 1e3) >= 1, "{:?}", w.op_ms);
        assert!(slow(20.0) >= 6, "{:?}", w.op_ms);
        // The requests after the stall were sent late, and the run says so.
        let late = extras.late_ms.iter().filter(|&&t| t >= 20.0).count();
        assert!(late >= 5, "{:?}", extras.late_ms);
    }

    #[test]
    fn a_closed_loop_never_exceeds_its_requests_in_flight() {
        let mut w = ServeSmallSaturated::setup(5);
        w.verify();
        let window = w.window(Duration::from_millis(200));
        // 48 in flight against a queue of 64: nothing is ever shed.
        assert!(window.attempted > 48);
        assert_eq!((window.failed, window.mismatched), (0, 0));
        assert_eq!(w.server.stats().shed, 0);
    }
}
