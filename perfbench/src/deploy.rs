//! Drives one deployment (an RSM deployment or a one-shot agreement
//! instance) on either runtime, and measures it from outside.
//!
//! A deployment is a fresh system of [`Probe`]-wrapped processes. Its
//! phases are timed separately:
//!
//! * **set-up** — process construction (key generation included) and,
//!   on TCP, `build()` plus the full-mesh handshake: set-up ends only
//!   when every directed link has exchanged its two HELLO frames, so no
//!   dialing leaks into the first op's latency;
//! * **timed phase** — from releasing the protocol to the last op
//!   completion stamp, with process CPU read around it and the
//!   transport counters read at both ends.

use crate::measure::{cpu_ms, now_ns, thread_times};
use crate::probe::{probe_of, OpRecord, Probe, Span};
use bgla_codec::{decode_frame, decode_payload, encode_frame, encode_payload, Wire};
use bgla_net::{Data, NetConfig, TcpRuntimeBuilder, FK_DATA};
use bgla_simnet::{Metrics, Process, RandomScheduler, SimulationBuilder, Transport, WireMessage};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Idle window measured after a traced TCP deployment: every thread's
/// CPU over it, per second.
const IDLE_WINDOW: Duration = Duration::from_millis(250);

/// A TCP deployment in which no op completes for this long has stalled
/// (op latencies are tens to hundreds of ms).
const TCP_STALL: Duration = Duration::from_secs(5);

/// A simulated deployment in which no op completes for this many
/// deliveries has stalled (an op takes about ten thousand).
const SIM_STALL: u64 = 1_000_000;

/// Counters of one deployment's timed phase.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Protocol messages sent, per kind.
    pub msgs: BTreeMap<&'static str, u64>,
    /// Modeled (`wire_size`) bytes sent, per kind.
    pub bytes: BTreeMap<&'static str, u64>,
    /// Deliveries.
    pub delivered: u64,
    /// Modeled proof bytes shipped inline.
    pub proof_bytes: u64,
    /// Modeled proof-reference bytes.
    pub proof_ref_bytes: u64,
    /// Frames written to sockets.
    pub frames: u64,
    /// Bytes written to sockets.
    pub frame_bytes: u64,
    /// DATA frames retransmitted.
    pub retransmits: u64,
    /// Duplicate DATA frames discarded.
    pub dup_frames: u64,
    /// Messages dropped at a full outbox.
    pub outbox_dropped: u64,
}

impl Counts {
    fn of(m: &Metrics) -> Counts {
        Counts {
            msgs: m.sent_by_kind.clone(),
            bytes: m.bytes_by_kind.clone(),
            delivered: m.delivered,
            proof_bytes: m.proof_bytes_interned,
            proof_ref_bytes: m.proof_ref_bytes,
            frames: m.net_frames,
            frame_bytes: m.net_frame_bytes,
            retransmits: m.net_retransmits,
            dup_frames: m.net_dup_frames,
            outbox_dropped: m.net_outbox_dropped,
        }
    }

    fn minus(mut self, base: &Counts) -> Counts {
        let sub = |a: &mut BTreeMap<&'static str, u64>, b: &BTreeMap<&'static str, u64>| {
            for (k, v) in b {
                if let Some(x) = a.get_mut(k) {
                    *x -= v;
                }
            }
        };
        sub(&mut self.msgs, &base.msgs);
        sub(&mut self.bytes, &base.bytes);
        self.delivered -= base.delivered;
        self.proof_bytes -= base.proof_bytes;
        self.proof_ref_bytes -= base.proof_ref_bytes;
        self.frames -= base.frames;
        self.frame_bytes -= base.frame_bytes;
        self.retransmits -= base.retransmits;
        self.dup_frames -= base.dup_frames;
        self.outbox_dropped -= base.outbox_dropped;
        self
    }

    /// Every protocol message sent.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.values().sum()
    }

    /// Every modeled byte sent.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.values().sum()
    }
}

/// The codec replay of a deployment's sampled traffic, scaled up to
/// the whole deployment.
#[derive(Debug, Default, Clone, Copy)]
pub struct Codec {
    /// Time to encode payload and DATA frame.
    pub encode_ns: f64,
    /// Time to check and decode frame and payload.
    pub decode_ns: f64,
    /// Modeled bytes of the replayed messages.
    pub modeled: f64,
    /// Encoded payload bytes.
    pub payload: f64,
    /// Encoded payload bytes of copies for other nodes (the ones that
    /// cross a socket).
    pub wire_payload: f64,
}

/// Per-thread CPU of a traced TCP deployment's timed phase, from the
/// kernel's per-thread schedstat (ns resolution).
#[derive(Debug, Default, Clone, Copy)]
pub struct Threads {
    /// On-CPU ns of the nodes' event threads (handlers, codec, dispatch).
    pub event_cpu_ns: u64,
    /// Run-queue wait of the event threads.
    pub event_wait_ns: u64,
    /// On-CPU ns of the poller pool (sockets, frames, acks, timers).
    pub poller_cpu_ns: u64,
    /// Run-queue wait of the poller pool.
    pub poller_wait_ns: u64,
}

/// Protocol-level figures a workload reads from its processes.
#[derive(Debug, Default, Clone)]
pub struct Inspect {
    /// Refinements summed over processes.
    pub refinements: u64,
    /// Signature verifications (single + batched calls).
    pub verifies: u64,
    /// Proof-verdict cache (hits, misses).
    pub cache: (u64, u64),
    /// GWTS decisions summed over replicas.
    pub decisions: u64,
    /// Largest decision depth of any process.
    pub decide_hops_max: u64,
    /// A correctness violation, if any.
    pub violation: Option<String>,
}

/// Everything one deployment produced.
#[derive(Debug, Default)]
pub struct Deployment {
    /// Whether the traced-run measurements were on.
    pub traced: bool,
    /// Whether it ran on the simulator.
    pub sim: bool,
    /// Set-up time in seconds.
    pub setup_s: f64,
    /// TCP: `build()` until the last HELLO, in ms.
    pub mesh_ms: f64,
    /// Timed phase wall time in seconds.
    pub wall_s: f64,
    /// Process CPU over the timed phase, in ms.
    pub cpu_ms: f64,
    /// Ops the deployment's script asks for.
    pub attempted: u64,
    /// Completed ops.
    pub ops: Vec<OpRecord>,
    /// Whether the deployment ended with ops unfinished because none
    /// completed for a stall interval.
    pub stalled: bool,
    /// Timed-phase counters.
    pub counts: Counts,
    /// Traced: per incoming kind (calls, handler ns).
    pub handler: BTreeMap<&'static str, (u64, u64)>,
    /// Traced: handler spans per node.
    pub spans: Vec<(usize, Span)>,
    /// Traced: outgoing self-addressed messages.
    pub self_sends: u64,
    /// Traced: codec replay.
    pub codec: Codec,
    /// Traced TCP: per-thread CPU.
    pub threads: Threads,
    /// Traced TCP: process CPU ms per second of an idle window.
    pub idle_cpu_ms_per_s: Option<f64>,
    /// Protocol figures and the correctness verdict.
    pub inspect: Inspect,
}

impl Deployment {
    /// Handler time summed over kinds, in ns.
    pub fn handler_ns(&self) -> f64 {
        self.handler.values().map(|&(_, ns)| ns as f64).sum()
    }
}

/// Moves the probes' results out of a finished runtime; returns the
/// sampled traffic and the event threads' ids.
fn collect<I, O>(t: &dyn Transport<O>, d: &mut Deployment) -> (Vec<(bool, I)>, BTreeSet<u64>)
where
    I: WireMessage + 'static,
    O: WireMessage,
{
    let mut samples: Vec<(bool, I)> = Vec::new();
    let mut tids = BTreeSet::new();
    for node in 0..t.node_count() {
        t.with_process(node, &mut |p| {
            let probe = probe_of::<I>(p.as_any());
            d.ops.extend(probe.ops.iter().copied());
            d.attempted += probe.planned as u64;
            if let Some(tr) = &probe.tracer {
                for (k, &(c, ns)) in &tr.handler {
                    let e = d.handler.entry(k).or_insert((0, 0));
                    e.0 += c;
                    e.1 += ns;
                }
                d.spans.extend(tr.spans.iter().map(|s| (node, *s)));
                d.self_sends += tr.self_sends;
                samples.extend(tr.sample.iter().cloned());
                tids.insert(tr.tid);
            }
        });
    }
    (samples, tids)
}

/// Splits the CPU threads spent between two `thread_times` snapshots
/// into the event threads (`events`) and the rest of the runtime (the
/// poller pool); the calling thread is left out.
fn split_threads(
    before: &BTreeMap<u64, (u64, u64)>,
    after: &BTreeMap<u64, (u64, u64)>,
    events: &BTreeSet<u64>,
) -> Threads {
    let main = u64::from(std::process::id());
    let mut t = Threads::default();
    for (tid, &(cpu, wait)) in after.iter().filter(|(tid, _)| **tid != main) {
        let (cpu0, wait0) = before.get(tid).copied().unwrap_or((0, 0));
        let (c, w) = (cpu - cpu0, wait - wait0);
        if events.contains(tid) {
            t.event_cpu_ns += c;
            t.event_wait_ns += w;
        } else {
            t.poller_cpu_ns += c;
            t.poller_wait_ns += w;
        }
    }
    t
}

/// Replays sampled messages through the runtime's codec path: each
/// copy is payload-encoded, and a copy for another node is also wrapped
/// in a checksummed DATA frame; decoding reverses both.
fn replay<I, O>(samples: Vec<(bool, I)>) -> Codec
where
    I: WireMessage,
    O: WireMessage + Wire + From<I>,
{
    let scale = crate::probe::SAMPLE_EVERY as f64;
    let mut c = Codec::default();
    for (to_self, m) in samples {
        let m = O::from(m);
        c.modeled += m.wire_size() as f64;
        let t0 = Instant::now();
        let payload = encode_payload(&m);
        let frame = (!to_self).then(|| {
            encode_frame(
                FK_DATA,
                &Data {
                    seq: 0,
                    depth: 1,
                    payload: payload.clone(),
                },
            )
        });
        let t1 = Instant::now();
        let bytes = match &frame {
            Some(f) => decode_frame::<Data>(FK_DATA, f).expect("own frame").payload,
            None => payload.clone(),
        };
        let back = decode_payload::<O>(&bytes).expect("own payload");
        let t2 = Instant::now();
        assert_eq!(
            back.kind(),
            m.kind(),
            "codec replay changed the message kind"
        );
        c.payload += payload.len() as f64;
        if !to_self {
            c.wire_payload += payload.len() as f64;
        }
        c.encode_ns += (t1 - t0).as_nanos() as f64;
        c.decode_ns += (t2 - t1).as_nanos() as f64;
    }
    Codec {
        encode_ns: c.encode_ns * scale,
        decode_ns: c.decode_ns * scale,
        modeled: c.modeled * scale,
        payload: c.payload * scale,
        wire_payload: c.wire_payload * scale,
    }
}

/// Runs one deployment on the TCP runtime. `build` constructs the
/// probes (timed as set-up); `inspect` reads protocol state and checks
/// safety before the runtime is shut down. Ops left unfinished by a
/// stall are the deployment's failures.
pub fn tcp<I, O>(
    cfg: NetConfig,
    traced: bool,
    idle: bool,
    quiesces: bool,
    build: impl FnOnce() -> Vec<Box<dyn Process<O>>>,
    inspect: impl FnOnce(&dyn Transport<O>) -> Inspect,
) -> Deployment
where
    I: WireMessage + 'static,
    O: WireMessage + Wire + From<I> + 'static,
{
    let t0 = Instant::now();
    let procs = build();
    let n = procs.len() as u64;
    let mut b = TcpRuntimeBuilder::new(cfg);
    for p in procs {
        b = b.add(p);
    }
    let t_build = Instant::now();
    let mut rt = b.build().expect("bind localhost listeners");
    // Set-up ends when every directed link has exchanged HELLOs.
    let hellos = 2 * n * (n - 1);
    let deadline = Instant::now() + Duration::from_millis(cfg.deadline_ms);
    let base = loop {
        let m = rt.metrics_snapshot();
        if m.net_frames >= hellos {
            break m;
        }
        assert!(Instant::now() < deadline, "mesh handshake did not finish");
        std::thread::sleep(Duration::from_micros(50));
    };
    let mut d = Deployment {
        traced,
        setup_s: t0.elapsed().as_secs_f64(),
        mesh_ms: t_build.elapsed().as_secs_f64() * 1e3,
        ..Deployment::default()
    };
    let base = Counts::of(&base);
    let threads0 = if traced {
        thread_times()
    } else {
        BTreeMap::new()
    };
    let cpu0 = cpu_ms();
    let go_ns = now_ns();
    // Ends when every probe finished, or when no op completed for
    // `TCP_STALL` (the runtime visits probes in order up to the first
    // unfinished one, which is enough to see progress stop).
    let mut seen = vec![0; n as usize];
    let mut progress = Instant::now();
    let mut stalled = false;
    rt.run_until_all(u64::MAX, &mut |id, p| {
        let probe = probe_of::<I>(p.as_any());
        if probe.ops.len() != seen[id] {
            seen[id] = probe.ops.len();
            progress = Instant::now();
        }
        stalled |= progress.elapsed() > TCP_STALL;
        stalled || probe.finished()
    });
    d.cpu_ms = cpu_ms() - cpu0;
    let threads1 = if traced {
        thread_times()
    } else {
        BTreeMap::new()
    };
    d.counts = Counts::of(&rt.metrics_snapshot()).minus(&base);
    let (samples, events) = collect::<I, O>(&rt, &mut d);
    if traced {
        d.threads = split_threads(&threads0, &threads1, &events);
        d.codec = replay::<I, O>(samples);
    }
    let last = d.ops.iter().map(|o| o.done_ns).max().unwrap_or(go_ns);
    d.wall_s = (last - go_ns) as f64 / 1e9;
    d.stalled = (d.ops.len() as u64) < d.attempted;
    d.inspect = inspect(&rt);
    if idle {
        if quiesces {
            rt.run_transport(u64::MAX);
        }
        let busy = |t: &BTreeMap<u64, (u64, u64)>| t.values().map(|v| v.0).sum::<u64>();
        let (c0, t) = (busy(&thread_times()), Instant::now());
        std::thread::sleep(IDLE_WINDOW);
        let ms = busy(&thread_times()).saturating_sub(c0) as f64 / 1e6;
        d.idle_cpu_ms_per_s = Some(ms / t.elapsed().as_secs_f64());
    }
    rt.shutdown();
    d
}

/// Runs one deployment on the simulator under a seeded random
/// schedule. The simulator moves messages without encoding them, so
/// there is no codec replay.
pub fn sim<I>(
    seed: u64,
    traced: bool,
    build: impl FnOnce() -> Vec<Box<dyn Process<I>>>,
    inspect: impl FnOnce(&dyn Transport<I>) -> Inspect,
) -> Deployment
where
    I: WireMessage + 'static,
{
    let t0 = Instant::now();
    let mut s = SimulationBuilder::new()
        .scheduler(Box::new(RandomScheduler::new(seed)))
        .add_all(build())
        .build();
    let mut d = Deployment {
        traced,
        sim: true,
        setup_s: t0.elapsed().as_secs_f64(),
        ..Deployment::default()
    };
    let cpu0 = cpu_ms();
    let t = Instant::now();
    let (mut seen, mut progress) = (0, 0);
    s.run_until(u64::MAX, |s| {
        let mut ops = 0;
        let mut all = true;
        for p in 0..s.n() {
            let probe = probe_of::<I>(s.process(p).as_any());
            ops += probe.ops.len();
            all &= probe.finished();
        }
        let delivered = s.metrics().delivered;
        if ops != seen {
            (seen, progress) = (ops, delivered);
        }
        all || delivered - progress > SIM_STALL
    });
    d.wall_s = t.elapsed().as_secs_f64();
    d.cpu_ms = cpu_ms() - cpu0;
    d.counts = Counts::of(s.metrics());
    drop(collect::<I, I>(&s, &mut d));
    d.stalled = (d.ops.len() as u64) < d.attempted;
    d.inspect = inspect(&s);
    d
}

/// The probe around process `node` of a finished runtime.
pub fn visit<I: 'static, O, R>(
    t: &dyn Transport<O>,
    node: usize,
    f: impl FnOnce(&Probe<I>) -> R,
) -> R
where
    O: WireMessage,
{
    let mut f = Some(f);
    let mut out = None;
    t.with_process(node, &mut |p| {
        if let Some(f) = f.take() {
            out = Some(f(probe_of::<I>(p.as_any())));
        }
    });
    out.expect("with_process visits once")
}
