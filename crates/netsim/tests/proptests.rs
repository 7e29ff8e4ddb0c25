//! Property-based tests for the simulator: determinism, delivery
//! conservation, and exact TTL semantics on arbitrary route shapes.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_netsim::{Network, Route, Time};
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

fn packet(ttl: u8, tag: u8) -> Vec<u8> {
    let mut repr = Ipv4Repr::new(A, B, Protocol::Other(0xfd), 1);
    repr.ttl = ttl;
    repr.build(&[tag])
}

fn hops(n: usize) -> Vec<Ipv4Addr> {
    (0..n as u32).map(|i| Ipv4Addr::from(0x0aff_0000 + i)).collect()
}

proptest! {
    /// A packet with TTL t crosses an n-router path iff t > n; otherwise
    /// exactly one ICMP time-exceeded returns, from router t. TTL 0 dies
    /// at the first router like TTL 1 (no router decrements it), and
    /// crosses only the router-free path.
    #[test]
    fn ttl_semantics_exact(n in 0usize..20, ttl in 0u8..25) {
        let mut net = Network::new(Duration::from_millis(1));
        let a = net.add_host(A);
        let b = net.add_host(B);
        let route_hops = hops(n);
        net.set_route_symmetric(a, b, Route::through(&route_hops));
        net.send_from(a, packet(ttl, 1));
        net.run_until_idle();
        let delivered = net.take_inbox(b);
        let returned = net.take_inbox(a);
        let dies_at = usize::from(ttl.max(1));
        if dies_at > n {
            prop_assert_eq!(delivered.len(), 1);
            prop_assert_eq!(returned.len(), 0);
            let view = Ipv4Packet::new_checked(&delivered[0].1[..]).unwrap();
            prop_assert_eq!(usize::from(view.ttl()), usize::from(ttl) - n);
        } else {
            prop_assert_eq!(delivered.len(), 0);
            prop_assert_eq!(returned.len(), 1);
            let view = Ipv4Packet::new_checked(&returned[0].1[..]).unwrap();
            prop_assert_eq!(view.src_addr(), route_hops[dies_at - 1]);
        }
    }

    /// Delivery conservation: k sends on a plain route produce exactly k
    /// deliveries, in send order, each after hops+1 latencies.
    #[test]
    fn delivery_conservation(n in 0usize..12, k in 1usize..30) {
        let mut net = Network::new(Duration::from_millis(1));
        let a = net.add_host(A);
        let b = net.add_host(B);
        net.set_route_symmetric(a, b, Route::through(&hops(n)));
        for i in 0..k {
            net.send_from(a, packet(64, i as u8));
        }
        net.run_until_idle();
        let delivered = net.take_inbox(b);
        prop_assert_eq!(delivered.len(), k);
        for (i, (time, bytes)) in delivered.iter().enumerate() {
            let view = Ipv4Packet::new_checked(&bytes[..]).unwrap();
            prop_assert_eq!(view.payload()[0] as usize, i, "FIFO order");
            prop_assert_eq!(*time, Time::from_micros(1_000 * (n as u64 + 1)));
        }
    }

    /// Determinism: two identical runs produce byte-identical captures.
    #[test]
    fn deterministic_replay(n in 0usize..8, sends in proptest::collection::vec(1u8..64, 1..20)) {
        let run = |sends: &[u8]| {
            let mut net = Network::new(Duration::from_millis(1));
            net.set_capture(true);
            let a = net.add_host(A);
            let b = net.add_host(B);
            net.set_route_symmetric(a, b, Route::through(&hops(n)));
            for &ttl in sends {
                net.send_from(a, packet(ttl, ttl));
            }
            net.run_until_idle();
            tspu_netsim::pcap::to_pcap_bytes(&net.take_captures())
        };
        prop_assert_eq!(run(&sends), run(&sends));
    }

    /// run_for never overshoots the requested deadline and processes
    /// everything due before it.
    #[test]
    fn run_for_is_exact(advance_ms in 1u64..10_000) {
        let mut net = Network::new(Duration::from_millis(1));
        let a = net.add_host(A);
        let b = net.add_host(B);
        net.set_route_symmetric(a, b, Route::direct());
        net.send_from(a, packet(64, 9));
        net.run_for(Duration::from_millis(advance_ms));
        prop_assert_eq!(net.now(), Time::from_micros(advance_ms * 1_000));
        // The 1 ms delivery happened iff we advanced at least that far.
        prop_assert_eq!(net.take_inbox(b).len(), usize::from(advance_ms >= 1));
    }
}
