//! Property tests for the interconnect latency math.
//!
//! Four families: metric properties of torus hop counts (symmetry,
//! identity, triangle inequality, diameter bound), monotonicity of the
//! contention model (adding traffic never makes a later delivery
//! *earlier*), the Table-2 constants of `paper_default`, and the
//! `fixed_overhead` latency floor the simulator's superphase margin
//! rests on.

use proptest::prelude::*;
use sb_engine::Cycle;
use sb_net::{
    MsgSize, Network, NetworkConfig, NodeId, PerturbationConfig, Topology, Torus, TrafficClass,
};

/// Every fabric `Topology::by_name` knows.
const FABRICS: [&str; 3] = ["torus", "cmesh", "xtorus"];

const SIZES: [MsgSize; 4] = [
    MsgSize::Small,
    MsgSize::Line,
    MsgSize::Signature,
    MsgSize::SignaturePair,
];

fn class_of(i: u64) -> TrafficClass {
    TrafficClass::ALL[(i % TrafficClass::ALL.len() as u64) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Hop count is a metric on every paper-shaped torus: symmetric, zero
    /// iff equal, triangle inequality, and bounded by the torus diameter
    /// `cols/2 + rows/2`.
    #[test]
    fn torus_hops_form_a_metric(
        tiles_log in 0u32..7,
        picks in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let tiles = 1u16 << tiles_log;
        let t = Torus::for_tiles(tiles);
        let n = tiles as u64;
        let (a, b, c) = (
            NodeId((picks.0 % n) as u16),
            NodeId((picks.1 % n) as u16),
            NodeId((picks.2 % n) as u16),
        );
        prop_assert_eq!(t.hops(a, b), t.hops(b, a));
        prop_assert_eq!(t.hops(a, a), 0);
        if a != b {
            prop_assert!(t.hops(a, b) > 0);
        }
        prop_assert!(t.hops(a, b) <= t.hops(a, c) + t.hops(c, b), "triangle inequality");
        prop_assert!(t.hops(a, b) <= t.cols() / 2 + t.rows() / 2, "diameter bound");
    }

    /// Contention monotonicity: injecting an extra message from the same
    /// source before a probe never makes the probe arrive *earlier*, and
    /// with contention modelling disabled it has no effect at all.
    #[test]
    fn more_in_flight_traffic_never_speeds_up_a_delivery(
        prefix in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..12),
        probe in (any::<u64>(), any::<u64>(), any::<u64>()),
        extra in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let cfg = NetworkConfig::paper_default(16);
        let send = |net: &mut Network, spec: &(u64, u64, u64), src: u16| {
            net.send(
                Cycle(spec.0 % 50),
                NodeId(src),
                NodeId((spec.1 % 16) as u16),
                SIZES[(spec.2 % 4) as usize],
                class_of(spec.2),
            )
        };
        // All traffic leaves node 3, so every message contends for one port.
        let mut without = Network::new(cfg);
        for m in &prefix {
            send(&mut without, m, 3);
        }
        let t_without = send(&mut without, &probe, 3);

        let mut with = Network::new(cfg);
        for m in &prefix {
            send(&mut with, m, 3);
        }
        send(&mut with, &extra, 3);
        let t_with = send(&mut with, &probe, 3);
        prop_assert!(
            t_with >= t_without,
            "extra in-flight message made the probe earlier: {t_with:?} < {t_without:?}"
        );

        // Disabled contention: the extra message must change nothing.
        let mut free = cfg;
        free.model_contention = false;
        let mut a = Network::new(free);
        let mut b = Network::new(free);
        send(&mut b, &extra, 3);
        prop_assert_eq!(send(&mut a, &probe, 3), send(&mut b, &probe, 3));
    }

    /// An uncontended send equals `pure_latency`, which decomposes as
    /// `fixed + hops * link + (flits - 1)` with Table 2's constants.
    #[test]
    fn paper_default_latency_decomposition(
        src in 0u64..64,
        dst in 0u64..64,
        size_pick in 0u64..4,
    ) {
        let cfg = NetworkConfig::paper_default(64);
        prop_assert_eq!(cfg.link_latency, 7, "Table 2: 7-cycle links");
        prop_assert_eq!(cfg.fixed_overhead, 2);
        prop_assert_eq!(cfg.topology, Topology::Torus(Torus::for_tiles(64)));
        prop_assert!(cfg.model_contention);

        let (src, dst) = (NodeId(src as u16), NodeId(dst as u16));
        let size = SIZES[size_pick as usize];
        let mut net = Network::new(cfg);
        let arrival = net.send(Cycle(0), src, dst, size, class_of(size_pick));
        let hops = cfg.topology.hops(src, dst) as u64;
        prop_assert_eq!(
            arrival,
            Cycle(2 + hops * 7 + (size.flits() as u64 - 1)),
            "first send from an idle port pays no queueing"
        );
        prop_assert_eq!(net.pure_latency(src, dst, size), arrival.as_u64());
    }

    /// The timing adversary only ever delays: a perturbed delivery is
    /// never earlier than the unperturbed one for the same traffic.
    #[test]
    fn perturbation_is_delay_only(
        seed in any::<u64>(),
        msgs in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..20),
    ) {
        let cfg = NetworkConfig::paper_default(16);
        let mut plain = Network::new(cfg);
        let mut adv = Network::with_perturbation(cfg, PerturbationConfig::from_seed(seed));
        for (i, m) in msgs.iter().enumerate() {
            let t = Cycle(i as u64 * 11);
            let (src, dst) = (NodeId((m.0 % 16) as u16), NodeId((m.1 % 16) as u16));
            let size = SIZES[(m.2 % 4) as usize];
            let base = plain.send(t, src, dst, size, class_of(m.2));
            let pert = adv.send(t, src, dst, size, class_of(m.2));
            prop_assert!(pert >= base);
        }
    }

    /// Every delivery arrives at least `fixed_overhead` cycles after its
    /// send, on every fabric, for any link latency and fixed overhead,
    /// with or without injection-port contention and the timing
    /// adversary. This floor is what makes the simulator's A-phase
    /// margin `fixed_overhead.max(1)` sound: no hub→core message sent at
    /// or after the global minimum `G` can land before `G + margin`.
    #[test]
    fn every_delivery_pays_the_fixed_overhead(
        tiles_log in 0u32..7,
        fabric_pick in 0usize..3,
        link_latency in 0u64..12,
        fixed_overhead in 0u64..6,
        contention in any::<bool>(),
        seed in any::<u64>(),
        msgs in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u64..4, 0u64..8), 1..120),
    ) {
        let tiles = 1u16 << tiles_log;
        let mut cfg = NetworkConfig::paper_default(tiles);
        cfg.topology = Topology::by_name(FABRICS[fabric_pick], tiles).expect("known fabric");
        cfg.link_latency = link_latency;
        cfg.fixed_overhead = fixed_overhead;
        cfg.model_contention = contention;
        // One case in two runs under the seeded timing adversary.
        let mut net = if seed & 1 == 0 {
            Network::new(cfg)
        } else {
            Network::with_perturbation(cfg, PerturbationConfig::from_seed(seed))
        };
        let mut now = Cycle::ZERO;
        for (a, b, sz, gap) in msgs {
            now += gap;
            let src = NodeId((a % tiles as u64) as u16);
            let dst = NodeId((b % tiles as u64) as u16);
            let (arrive, info) = net.send_info(now, src, dst, SIZES[sz as usize], class_of(a));
            prop_assert!(arrive >= now, "delivery cannot precede the send");
            prop_assert!(
                (arrive - now).as_u64() >= fixed_overhead,
                "{src}->{dst} arrived after {} cycles, below fixed_overhead \
                 {fixed_overhead} (info: {info:?})",
                (arrive - now).as_u64(),
            );
        }
    }
}
