//! Observability overhead measurement: the device packet path and the
//! simulator event loop, timed under whichever `obs` mode this binary was
//! compiled with. The bench ids carry the mode (`obs/device_hop_enabled`
//! vs `obs/device_hop_disabled`), so running the binary twice — default
//! features, then `--no-default-features` — into the same `BENCH_JSON`
//! file yields the before/after pair `bench_smoke.sh` turns into
//! `obs/overhead_device_hop`.
//!
//! Measured by hand (steady-state loop over a pre-built packet) rather
//! than through a Criterion group, because the quantity of interest is a
//! *difference* of two builds: both sides must run the identical loop.

use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_core::{Policy, PolicyHandle, TspuDevice};
use tspu_netsim::{Direction, Middlebox, Network, Route, Time};
use tspu_stack::craft::TcpPacketSpec;
use tspu_wire::tcp::TcpFlags;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 1);
const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// ns/packet through the device's non-triggering data-packet hot path —
/// the loop the zero-alloc test freezes and the 5% overhead budget
/// covers. One `packets_seen` increment and one disabled-tracer check per
/// packet in the instrumented build; pure no-ops in the disabled build.
fn device_hop_ns(iters: u64) -> f64 {
    let mut dev = TspuDevice::reliable("bench", PolicyHandle::new(Policy::example()));
    let data = TcpPacketSpec::new(CLIENT, 40000, SERVER, 443, TcpFlags::PSH_ACK)
        .payload(vec![0xab; 1000])
        .build();
    let mut buf = data;
    let mut t = 0u64;
    for _ in 0..10_000 {
        t += 1;
        criterion::black_box(dev.process(Time::from_micros(t), Direction::LocalToRemote, &mut buf));
    }
    // Best-of-batches: the minimum batch time is the least-noise estimate
    // of the steady-state cost, and the overhead number BENCH_pr4.json
    // reports is a *difference* of two such estimates — scheduler noise
    // on either side would otherwise dwarf a few ns of real delta.
    const BATCHES: u64 = 10;
    let per_batch = (iters / BATCHES).max(1);
    let mut best_ns_per_iter = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = std::time::Instant::now();
        for _ in 0..per_batch {
            t += 1;
            criterion::black_box(dev.process(
                Time::from_micros(t),
                Direction::LocalToRemote,
                &mut buf,
            ));
        }
        let ns = start.elapsed().as_nanos() as f64 / per_batch as f64;
        best_ns_per_iter = best_ns_per_iter.min(ns);
    }
    best_ns_per_iter
}

/// ns/event through the simulator loop (hop spans + queue-depth histogram
/// live here), SYN round trips over a 10-hop route with a device on it.
fn netsim_event_ns(flows: u64) -> f64 {
    let mut net = Network::new(Duration::from_micros(100));
    let a = net.add_host(CLIENT);
    let s = net.add_host(SERVER);
    let policy = PolicyHandle::new(Policy::example());
    let dev = net.add_middlebox(Box::new(TspuDevice::reliable("bench-obs", policy)));
    let hops: Vec<Ipv4Addr> = (0..10u32).map(|i| Ipv4Addr::from(0x0ab0_0000 + i)).collect();
    let mut route = Route::through(&hops);
    route.steps[8].devices.push((dev, Direction::LocalToRemote));
    net.set_route_symmetric(a, s, route);
    const BATCHES: u64 = 5;
    let per_batch = (flows / BATCHES).max(1);
    let mut best_ns_per_event = f64::INFINITY;
    let mut n = 0u64;
    for _ in 0..BATCHES {
        let start = std::time::Instant::now();
        let mut events = 0u64;
        for _ in 0..per_batch {
            n += 1;
            let port = 1024 + (n % 60_000) as u16;
            let syn = TcpPacketSpec::new(CLIENT, port, SERVER, 443, TcpFlags::SYN).build();
            net.send_from(a, syn);
            net.run_until_idle();
            criterion::black_box(net.take_inbox(s).len());
            events += 28; // 14 hops each way: fixed by the route, counted
                          // manually so both obs modes share one formula
                          // (events_processed reads 0 when obs is off).
                          // Capture-off, the engine pops fewer events than
                          // hops, so this is ns per route hop.
        }
        let ns = start.elapsed().as_nanos() as f64 / events.max(1) as f64;
        best_ns_per_event = best_ns_per_event.min(ns);
    }
    best_ns_per_event
}

fn main() {
    let mode = if tspu_obs::ENABLED { "enabled" } else { "disabled" };
    let hop_iters: u64 = if quick() { 2_000_000 } else { 20_000_000 };
    let flows: u64 = if quick() { 2_000 } else { 20_000 };

    let hop_ns = device_hop_ns(hop_iters);
    criterion::report_custom(&format!("obs/device_hop_{mode}"), hop_ns, hop_iters);

    let event_ns = netsim_event_ns(flows);
    criterion::report_custom(&format!("obs/netsim_event_{mode}"), event_ns, flows * 28);
}
