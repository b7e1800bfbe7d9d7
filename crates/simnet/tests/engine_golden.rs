//! Golden delivery digests for the simulation engine.
//!
//! A protocol-independent toy workload — three message kinds,
//! content-dependent sizes, state-dependent fan-out — runs under all
//! eight scheduler configurations (fifo, lifo, random, delay,
//! targeted/fifo, targeted/random, partition/fifo, partition/random)
//! at two system sizes and several seeds. Each run is reduced to one
//! FNV-1a digest over
//!
//! * every delivery event, field by field
//!   (`step, from, to, kind, depth, bytes`),
//! * the engine-owned [`Metrics`] fields (`sent_by`, `bytes_by`,
//!   `sent_by_kind`, `bytes_by_kind`, `delivered`, `max_message_bytes`),
//! * every process's causal depth,
//!
//! and compared against the committed [`GOLDEN`] table. The table was
//! recorded from the pre-slab `Vec`-scan engine (a full metadata scan
//! and a middle removal per delivery) before that engine was retired,
//! so it pins the slab engine and its incremental schedulers to the
//! old engine's exact delivery order. Because the workload is defined here rather than in
//! `bgla-core`, protocol and wire-model changes cannot invalidate it.

use bgla_simnet::{
    Context, DelayScheduler, FifoScheduler, LifoScheduler, Metrics, PartitionScheduler, Process,
    ProcessId, RandomScheduler, Scheduler, SimulationBuilder, TargetedScheduler, TraceEvent,
    WireMessage,
};
use std::any::Any;

/// The toy protocol's messages. Sizes depend on content so the byte
/// counters see more than a message count.
#[derive(Clone, Debug)]
enum Toy {
    /// Start-up broadcast carrying an origin-sized payload.
    Hello { payload: Vec<u8> },
    /// Bounced back and forth `ttl` more times.
    Echo { ttl: u8, payload: Vec<u8> },
    /// Relayed to two tag-chosen processes `ttl` more times.
    Gossip { ttl: u8, tag: u64 },
}

impl WireMessage for Toy {
    fn kind(&self) -> &'static str {
        match self {
            Toy::Hello { .. } => "hello",
            Toy::Echo { .. } => "echo",
            Toy::Gossip { .. } => "gossip",
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            Toy::Hello { payload } => 8 + payload.len(),
            Toy::Echo { payload, .. } => 16 + payload.len(),
            Toy::Gossip { tag, .. } => 16 + (tag % 29) as usize,
        }
    }
}

/// A toy process whose replies depend on everything it has received
/// so far (`acc` folds in each delivery), so a different delivery
/// order yields different sizes, fan-out and depths.
struct Node {
    seen: u64,
    acc: u64,
}

fn mix(a: u64, b: u64) -> u64 {
    (a ^ b).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

impl Process<Toy> for Node {
    fn on_start(&mut self, ctx: &mut Context<Toy>) {
        ctx.broadcast(Toy::Hello {
            payload: vec![ctx.me as u8; 1 + 3 * ctx.me],
        });
    }

    fn on_message(&mut self, from: ProcessId, msg: Toy, ctx: &mut Context<Toy>) {
        self.seen += 1;
        self.acc = mix(self.acc, (from as u64) << 32 | self.seen);
        let n = ctx.n;
        match msg {
            Toy::Hello { payload } => {
                let len = (self.seen as usize * 5 + from + payload.len()) % 17;
                ctx.send(
                    from,
                    Toy::Echo {
                        ttl: 2,
                        payload: vec![0; len],
                    },
                );
                if self.acc.is_multiple_of(3) {
                    let targets = [(ctx.me + 1) % n, (ctx.me + 3) % n];
                    ctx.multicast(
                        targets,
                        Toy::Gossip {
                            ttl: 3,
                            tag: self.acc,
                        },
                    );
                }
            }
            Toy::Echo { ttl, .. } if ttl > 0 => {
                let len = (self.seen as usize * 3 + ttl as usize) % 11;
                ctx.send(
                    from,
                    Toy::Echo {
                        ttl: ttl - 1,
                        payload: vec![1; len],
                    },
                );
            }
            Toy::Gossip { ttl, tag } if ttl > 0 => {
                let tag = mix(tag, self.acc);
                let targets = [(tag % n as u64) as usize, ((tag >> 8) % n as u64) as usize];
                ctx.multicast(targets, Toy::Gossip { ttl: ttl - 1, tag });
            }
            Toy::Echo { .. } | Toy::Gossip { .. } => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn nodes(n: usize) -> Vec<Box<dyn Process<Toy>>> {
    (0..n)
        .map(|_| Box::new(Node { seen: 0, acc: 0 }) as Box<dyn Process<Toy>>)
        .collect()
}

/// The eight scheduler configurations, with the release and heal
/// thresholds the toy workload's traffic must cross.
fn schedulers(seed: u64) -> Vec<(&'static str, Box<dyn Scheduler>)> {
    vec![
        ("fifo", Box::new(FifoScheduler::new())),
        ("lifo", Box::new(LifoScheduler::new())),
        ("random", Box::new(RandomScheduler::new(seed))),
        ("delay", Box::new(DelayScheduler::new(seed, 32))),
        (
            "targeted/fifo",
            Box::new(
                TargetedScheduler::new(vec![(0, 1), (1, 0)], Box::new(FifoScheduler::new()))
                    .with_release_after(40),
            ),
        ),
        (
            "targeted/random",
            Box::new(
                TargetedScheduler::new(vec![(2, 0), (0, 2)], Box::new(RandomScheduler::new(seed)))
                    .with_release_after(25),
            ),
        ),
        (
            "partition/fifo",
            Box::new(PartitionScheduler::new(
                vec![0, 1],
                60,
                Box::new(FifoScheduler::new()),
            )),
        ),
        (
            "partition/random",
            Box::new(PartitionScheduler::new(
                vec![0, 2],
                35,
                Box::new(RandomScheduler::new(seed)),
            )),
        ),
    ]
}

/// The largest release/heal threshold above: every run must deliver
/// more than this many messages for the adversaries' late phase to be
/// exercised.
const MAX_THRESHOLD: u64 = 60;

/// System sizes and seed counts: n = 7 over seeds 0..5 and n = 4 over
/// seeds 0..3.
const SIZES: [(usize, u64); 2] = [(7, 5), (4, 3)];

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn digest(events: &[TraceEvent], m: &Metrics, depths: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.u64(events.len() as u64);
    for e in events {
        h.u64(e.step);
        h.u64(e.from as u64);
        h.u64(e.to as u64);
        h.str(e.kind);
        h.u64(e.depth);
        h.u64(e.bytes as u64);
    }
    for per_process in [&m.sent_by, &m.bytes_by] {
        h.u64(per_process.len() as u64);
        per_process.iter().for_each(|&v| h.u64(v));
    }
    for per_kind in [&m.sent_by_kind, &m.bytes_by_kind] {
        h.u64(per_kind.len() as u64);
        for (kind, &v) in per_kind {
            h.str(kind);
            h.u64(v);
        }
    }
    h.u64(m.delivered);
    h.u64(m.max_message_bytes as u64);
    h.u64(depths.len() as u64);
    depths.iter().for_each(|&d| h.u64(d));
    h.0
}

/// Runs the toy workload to quiescence and returns its digest.
fn run_digest(n: usize, sched: Box<dyn Scheduler>, label: &str) -> u64 {
    let mut sim = SimulationBuilder::new()
        .scheduler(sched)
        .add_all(nodes(n))
        .build();
    sim.enable_trace();
    let out = sim.run(1_000_000);
    assert!(out.quiescent, "{label}: did not quiesce");
    assert!(
        out.delivered > MAX_THRESHOLD,
        "{label}: only {} deliveries, below the adversaries' thresholds",
        out.delivered
    );
    let depths: Vec<u64> = (0..n).map(|p| sim.depth_of(p)).collect();
    digest(sim.trace().unwrap().events(), sim.metrics(), &depths)
}

fn golden(name: &str, n: usize, seed: u64) -> u64 {
    GOLDEN
        .iter()
        .find(|&&(g_name, g_n, g_seed, _)| g_name == name && g_n == n && g_seed == seed)
        .map(|&(_, _, _, d)| d)
        .unwrap_or_else(|| panic!("no golden digest for {name}/n{n}/seed{seed}"))
}

#[test]
fn engine_reproduces_the_golden_digests() {
    let mut runs = 0;
    for (n, seeds) in SIZES {
        for seed in 0..seeds {
            for (name, sched) in schedulers(seed) {
                let label = format!("{name}/n{n}/seed{seed}");
                let got = run_digest(n, sched, &label);
                assert_eq!(
                    got,
                    golden(name, n, seed),
                    "{label}: digest {got:#018x} diverges from the golden table"
                );
                runs += 1;
            }
        }
    }
    assert_eq!(runs, GOLDEN.len(), "every golden entry is exercised");
}

/// `(scheduler config, n, seed, digest)`, recorded from the pre-slab
/// engine before its removal. Never re-record this table to make a
/// failing run pass: a mismatch means the engine's delivery order,
/// metering or depth accounting changed.
const GOLDEN: &[(&str, usize, u64, u64)] = &[
    ("fifo", 7, 0, 0xc7f126330e498cbf),
    ("lifo", 7, 0, 0x45fc8afd199f9452),
    ("random", 7, 0, 0xde5c1d445a1bfe91),
    ("delay", 7, 0, 0x157d92a187604e4b),
    ("targeted/fifo", 7, 0, 0x5fae6e1e64873f97),
    ("targeted/random", 7, 0, 0x6c7dcaadab662872),
    ("partition/fifo", 7, 0, 0x7af08def85ee562f),
    ("partition/random", 7, 0, 0x25f1c3159934e3dc),
    ("fifo", 7, 1, 0xc7f126330e498cbf),
    ("lifo", 7, 1, 0x45fc8afd199f9452),
    ("random", 7, 1, 0x52e97884196b87f0),
    ("delay", 7, 1, 0x40ebafd23c655b25),
    ("targeted/fifo", 7, 1, 0x5fae6e1e64873f97),
    ("targeted/random", 7, 1, 0x379402f22f262780),
    ("partition/fifo", 7, 1, 0x7af08def85ee562f),
    ("partition/random", 7, 1, 0xf75a81a990b11986),
    ("fifo", 7, 2, 0xc7f126330e498cbf),
    ("lifo", 7, 2, 0x45fc8afd199f9452),
    ("random", 7, 2, 0xa3541677cff05eae),
    ("delay", 7, 2, 0x7149f2ec0aab7802),
    ("targeted/fifo", 7, 2, 0x5fae6e1e64873f97),
    ("targeted/random", 7, 2, 0xe60ac772fb667666),
    ("partition/fifo", 7, 2, 0x7af08def85ee562f),
    ("partition/random", 7, 2, 0x5941c842202ac352),
    ("fifo", 7, 3, 0xc7f126330e498cbf),
    ("lifo", 7, 3, 0x45fc8afd199f9452),
    ("random", 7, 3, 0xad4ff6817495d6bc),
    ("delay", 7, 3, 0x57c9da2858def82c),
    ("targeted/fifo", 7, 3, 0x5fae6e1e64873f97),
    ("targeted/random", 7, 3, 0x7536f01e3d994f07),
    ("partition/fifo", 7, 3, 0x7af08def85ee562f),
    ("partition/random", 7, 3, 0x02b21b201ed76ee9),
    ("fifo", 7, 4, 0xc7f126330e498cbf),
    ("lifo", 7, 4, 0x45fc8afd199f9452),
    ("random", 7, 4, 0x984b6cd023425cb4),
    ("delay", 7, 4, 0xee130e96c19069e2),
    ("targeted/fifo", 7, 4, 0x5fae6e1e64873f97),
    ("targeted/random", 7, 4, 0x7474326f3f933219),
    ("partition/fifo", 7, 4, 0x7af08def85ee562f),
    ("partition/random", 7, 4, 0xd29b5f5429ae103d),
    ("fifo", 4, 0, 0x4bc652c8913a878d),
    ("lifo", 4, 0, 0x9da60109163963c0),
    ("random", 4, 0, 0x1f577e676bbad2f7),
    ("delay", 4, 0, 0xdb9f7a123e6546de),
    ("targeted/fifo", 4, 0, 0xee5e64b28ce2f9d4),
    ("targeted/random", 4, 0, 0xc35ffd8e61439abb),
    ("partition/fifo", 4, 0, 0xa787079c02477057),
    ("partition/random", 4, 0, 0xdae2ba30c55bb7c1),
    ("fifo", 4, 1, 0x4bc652c8913a878d),
    ("lifo", 4, 1, 0x9da60109163963c0),
    ("random", 4, 1, 0xb5c3261d26e25a4d),
    ("delay", 4, 1, 0x99b2886c6e714613),
    ("targeted/fifo", 4, 1, 0xee5e64b28ce2f9d4),
    ("targeted/random", 4, 1, 0x37ec97a66f793931),
    ("partition/fifo", 4, 1, 0xa787079c02477057),
    ("partition/random", 4, 1, 0xbed64118ba460cd7),
    ("fifo", 4, 2, 0x4bc652c8913a878d),
    ("lifo", 4, 2, 0x9da60109163963c0),
    ("random", 4, 2, 0x8b021a9c0cce948f),
    ("delay", 4, 2, 0xf79159bc75bf0537),
    ("targeted/fifo", 4, 2, 0xee5e64b28ce2f9d4),
    ("targeted/random", 4, 2, 0xb429d0b13d2e5bbf),
    ("partition/fifo", 4, 2, 0xa787079c02477057),
    ("partition/random", 4, 2, 0x80c2ca66fc1b4f17),
];
