//! The multiplexing acceptance suite: interleaved, reordered, duplicated
//! and delayed response frames never misdeliver — each completion slot
//! observes exactly the response carrying its own frame id — and one
//! wedged request does not stall unrelated in-flight queries sharing the
//! connection (it faults alone, at its own deadline).
//!
//! The property half drives the demux core directly with seed-shuffled
//! delivery schedules; the integration half runs a real `TcpTransport`
//! against a scripted raw socket that answers out of order, withholds one
//! response forever, and injects a stale frame for an abandoned id.

use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use kosr_core::{KosrOutcome, Query, QueryStats};
use kosr_graph::{CategoryId, VertexId};
use kosr_transport::mux::DemuxTable;
use kosr_transport::protocol::{
    decode_request, encode_response, read_frame, write_frame, Heartbeat, RemoteResponse, Request,
    Response,
};
use kosr_transport::{ShardTransport, TcpTransport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pong(epoch: u64) -> Response {
    Response::Pong {
        heartbeat: Heartbeat { epoch },
        next_seq: 0,
        events: Vec::new(),
    }
}

fn epoch_of(resp: Response) -> u64 {
    match resp {
        Response::Pong { heartbeat, .. } => heartbeat.epoch,
        other => panic!("not a pong: {other:?}"),
    }
}

/// Property: for random delivery permutations with duplicates, strays and
/// cross-thread timing, every slot gets exactly its own response.
#[test]
fn shuffled_duplicated_delivery_never_misroutes() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3A7);
        let n = rng.gen_range(1..40usize);
        let table = Arc::new(DemuxTable::new());
        // Non-contiguous ids: the table must key strictly on the id, not
        // on arrival order or density.
        let ids: Vec<u64> = (0..n).map(|i| (i as u64) * 3 + 1).collect();
        let completions: Vec<_> = ids.iter().map(|&id| table.register(id)).collect();

        // A shuffled schedule: every id once, plus duplicates and strays.
        let mut schedule: Vec<u64> = ids.clone();
        for i in (1..schedule.len()).rev() {
            let j = rng.gen_range(0..=i);
            schedule.swap(i, j);
        }
        let mut events: Vec<u64> = Vec::new();
        for &id in &schedule {
            if rng.gen_range(0..100u32) < 25 {
                events.push(ids[rng.gen_range(0..n)]); // duplicate (maybe early)
            }
            if rng.gen_range(0..100u32) < 25 {
                events.push(u64::MAX - rng.gen_range(0..50u64)); // stray
            }
            events.push(id);
        }

        // Deliver from another thread while waiters block, so completion
        // and waiting genuinely interleave.
        let delivery_table = Arc::clone(&table);
        let deliverer = thread::spawn(move || {
            for id in events {
                // The payload encodes the id it was meant for: any
                // misrouting is caught by the waiter's assertion below.
                let _ = delivery_table.complete(id, Ok(pong(id)));
            }
        });
        for (completion, &id) in completions.into_iter().zip(&ids) {
            let resp = completion
                .wait(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("seed {seed}: id {id} failed: {e}"));
            assert_eq!(epoch_of(resp), id, "seed {seed}: misdelivered response");
        }
        deliverer.join().unwrap();
        assert_eq!(table.pending(), 0, "seed {seed}");
    }
}

/// Integration: a scripted raw socket answers the *second* query
/// immediately and withholds the first forever. The second completes at
/// once; the first faults alone at its deadline; the connection keeps
/// serving afterwards, and a stale late response for the abandoned id is
/// discarded instead of answering the wrong request.
#[test]
fn wedged_request_faults_alone_and_late_frames_are_discarded() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();

    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let empty = KosrOutcome {
            witnesses: Vec::new(),
            stats: QueryStats::default(),
        };
        let answer = Response::Query(Ok(RemoteResponse {
            outcome: empty,
            cached: false,
            spans: Vec::new(),
        }));
        // Read the two query frames; answer only the second.
        let first = read_frame(&mut stream).unwrap().unwrap();
        let (wedged_id, req) = decode_request(&first).unwrap();
        assert!(matches!(req, Request::Query(_)));
        let second = read_frame(&mut stream).unwrap().unwrap();
        let (ok_id, _) = decode_request(&second).unwrap();
        write_frame(&mut stream, &encode_response(ok_id, &answer)).unwrap();
        // Wait for the ping that follows the client-side timeout; answer
        // the *wedged* id first (stale — must be discarded), then the ping.
        let third = read_frame(&mut stream).unwrap().unwrap();
        let (ping_id, req) = decode_request(&third).unwrap();
        assert!(matches!(req, Request::Ping { .. }));
        write_frame(&mut stream, &encode_response(wedged_id, &answer)).unwrap();
        write_frame(&mut stream, &encode_response(ping_id, &pong(777))).unwrap();
        // Keep the connection open until the client is done.
        let _ = read_frame(&mut stream);
    });

    let deadline = Duration::from_millis(300);
    let client = TcpTransport::with_deadline(addr, deadline);
    let q = Query::new(VertexId(0), VertexId(1), vec![CategoryId(0)], 1);
    let wedged = client.submit(q.clone());
    let fine = client.submit(q);

    // The unwedged request completes promptly — no convoy behind the
    // wedged one…
    let started = Instant::now();
    let resp = fine.wait().expect("second in-flight query answered");
    assert!(resp.outcome.witnesses.is_empty());
    assert!(
        started.elapsed() < deadline,
        "second request waited for the wedged one"
    );
    // …while the wedged request faults alone, at its own deadline.
    let err = wedged.wait().unwrap_err();
    assert!(err.is_fault(), "{err:?}");
    assert!(started.elapsed() >= deadline - Duration::from_millis(50));

    // The connection survived: the next request works, and the stale
    // response for the abandoned id was discarded, not delivered to it.
    let hb = client.ping().expect("connection still serving");
    assert_eq!(hb.epoch, 777);
    drop(client);
    server.join().unwrap();
}
