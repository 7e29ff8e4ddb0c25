//! Capture is a pure observer: turning packet capture on must not change
//! what the engine does — same inboxes, same scheduler event count — and
//! the capture log the fast path writes must hold exactly the records the
//! per-event path (span tracing on) writes, at the same instants.
//!
//! Routes are random: 0–12 routers, optionally one device at a random
//! step that drops, delays, rewrites, fans out or corrupts packets by
//! their tag, and a reflector on the far host so replies cross the device
//! the other way. Bursts of 1–20 packets carry TTLs from 0 to 24, so
//! packets die before, at and after the device.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_netsim::{
    Application, CaptureRecord, Direction, Middlebox, Network, Output, Route, RouteStep, Time,
    Verdict,
};
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
const PROTO: Protocol = Protocol::Other(0xfd);

fn packet(src: Ipv4Addr, dst: Ipv4Addr, ttl: u8, tag: u8) -> Vec<u8> {
    let mut repr = Ipv4Repr::new(src, dst, PROTO, 1);
    repr.ttl = ttl;
    repr.build(&[tag])
}

/// A stateless device whose verdict is a function of the packet's tag.
struct Meddler;

impl Middlebox for Meddler {
    fn process(&mut self, _now: Time, _dir: Direction, packet: &mut Vec<u8>) -> Verdict {
        let Some(&tag) = packet.last() else { return Verdict::Pass };
        match tag % 6 {
            0 => Verdict::Drop,
            1 => Verdict::Delay(Duration::from_micros(2_500)),
            2 => {
                let mut replacement = packet.clone();
                *replacement.last_mut().expect("non-empty") ^= 0x80;
                Verdict::Replace(replacement)
            }
            3 => {
                let mut second = packet.clone();
                *second.last_mut().expect("non-empty") = tag.wrapping_add(2);
                Verdict::Fanout(vec![packet.clone(), second])
            }
            4 => {
                // IPv4 version nibble 5: unparseable from here on.
                packet[0] = (packet[0] & 0x0f) | 0x50;
                Verdict::Pass
            }
            _ => Verdict::Pass,
        }
    }
}

/// Answers every parseable probe with its tag, so replies cross the
/// reverse route.
struct Reflector;

impl Application for Reflector {
    fn on_packet(&mut self, _now: Time, bytes: &[u8]) -> Vec<Output> {
        match Ipv4Packet::new_checked(bytes) {
            Ok(view) if view.protocol() == PROTO => {
                let tag = view.payload().first().copied().unwrap_or(0);
                vec![Output::send(packet(B, view.src_addr(), 64, tag))]
            }
            _ => Vec::new(),
        }
    }
}

type Inbox = Vec<(Time, Vec<u8>)>;

struct RunResult {
    inboxes: (Inbox, Inbox),
    events_popped: u64,
    captures: Vec<CaptureRecord>,
}

fn run(routers: usize, device_at: usize, ttls: &[u8], capture: bool, tracing: bool) -> RunResult {
    let mut net = Network::new(Duration::from_millis(1));
    net.set_capture(capture);
    net.set_tracing(tracing);
    let a = net.add_host(A);
    let b = net.add_host_with_app(B, Box::new(Reflector));
    let mut steps: Vec<RouteStep> =
        (0..routers as u32).map(|i| RouteStep::router(Ipv4Addr::from(0x0aff_0000 + i))).collect();
    if device_at < routers {
        let device = net.add_middlebox(Box::new(Meddler));
        steps[device_at].devices.push((device, Direction::LocalToRemote));
    }
    net.set_route_symmetric(a, b, Route { steps });
    for (i, &ttl) in ttls.iter().enumerate() {
        net.send_from(a, packet(A, B, ttl, i as u8));
    }
    net.run_until_idle();
    RunResult {
        inboxes: (net.take_inbox(a), net.take_inbox(b)),
        events_popped: net.events_popped(),
        captures: net.take_captures(),
    }
}

/// The capture log as a sorted multiset of `(time, point, bytes)`.
fn multiset(captures: &[CaptureRecord]) -> Vec<(Time, String, Vec<u8>)> {
    let mut records: Vec<_> =
        captures.iter().map(|c| (c.time, format!("{:?}", c.point), c.bytes.clone())).collect();
    records.sort();
    records
}

proptest! {
    #[test]
    fn capture_is_a_pure_observer(
        routers in 0usize..13,
        device_at in 0usize..13,
        ttls in proptest::collection::vec(0u8..25, 1..21),
    ) {
        let off = run(routers, device_at, &ttls, false, false);
        let on = run(routers, device_at, &ttls, true, false);
        prop_assert!(off.captures.is_empty());
        prop_assert_eq!(&off.inboxes, &on.inboxes, "capture changed what the hosts received");
        prop_assert_eq!(off.events_popped, on.events_popped, "capture changed the event count");

        let per_event = run(routers, device_at, &ttls, true, true);
        prop_assert_eq!(
            multiset(&on.captures),
            multiset(&per_event.captures),
            "fast-path capture log differs from the per-event path's"
        );
    }
}
