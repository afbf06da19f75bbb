//! The correctness gate, run after the measured phase and after `mem_mb`
//! was read: served answers against the unsharded oracle, a re-queried
//! sample against a reference service that replayed the same updates,
//! and every standing query's delta replay against a fresh query.

use std::collections::HashMap;
use std::sync::Arc;

use kosr_core::{IndexedGraph, KosrOutcome, Query};
use kosr_service::{run_sequential, KosrService, QueryPlanner, ServiceConfig};

use crate::client::{Client, ConnMode};
use crate::drive::{drain_sessions, outcome_of, Measured};
use crate::fleet::Fleet;
use crate::inputs::{Inputs, Workload};
use crate::json::{self, Answer, Value};
use crate::stats::{report_failure, Outcome, Tally};

/// Routes re-queried after the measured phase.
const SAMPLE: usize = 200;

/// Answers `queries` with `run_sequential` on two threads.
pub fn oracle(ig: &IndexedGraph, queries: &[Query]) -> Vec<KosrOutcome> {
    let planner = QueryPlanner::new(ServiceConfig::default().planner);
    let half = queries.len().div_ceil(2);
    std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(half.max(1))
            .map(|part| {
                let planner = planner.clone();
                s.spawn(move || run_sequential(ig, &planner, part))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    })
}

/// What the gate found, for the stamp.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verdict {
    pub oracle_checked: u64,
    pub oracle_mismatches: u64,
    pub sample_checked: u64,
    pub sessions_checked: u64,
    pub resyncs: u64,
}

fn replay_session(initial: &Value, polls: &[&[u8]]) -> Option<(Vec<Value>, u64)> {
    let mut state: Vec<Value> = initial.arr().to_vec();
    let mut resyncs = 0;
    for body in polls {
        let v = json::parse(body)?;
        if v.get("resync") == Some(&Value::Bool(true)) {
            resyncs += 1;
            state = v.get("routes")?.arr().to_vec();
            continue;
        }
        for d in v.get("deltas")?.arr() {
            for c in d.get("changed")?.arr() {
                let rank = c.get("rank")?.num()? as usize;
                let route = c.get("route")?.clone();
                if rank < state.len() {
                    state[rank] = route;
                } else {
                    state.push(route);
                }
            }
            state.truncate(d.get("new_len")?.num()? as usize);
        }
    }
    Some((state, resyncs))
}

pub fn verify(workload: Workload, inputs: &Inputs, m: &mut Measured, fleet: &Fleet) -> Verdict {
    let mut verdict = Verdict::default();
    let ig = IndexedGraph::build_default(inputs.world.clone());

    // Served answers of the read phase against the unsharded oracle, one
    // oracle run per distinct request body.
    if workload != Workload::LiveUpdates {
        let mut distinct: HashMap<&str, usize> = HashMap::new();
        let mut queries = Vec::new();
        for s in &m.served {
            distinct
                .entry(&inputs.route_bodies[s.route])
                .or_insert_with(|| {
                    queries.push(inputs.routes[s.route].clone());
                    queries.len() - 1
                });
        }
        let answers: Vec<Answer> = oracle(&ig, &queries)
            .iter()
            .map(|o| Answer::of_witnesses(&o.witnesses))
            .collect();
        for s in &m.served {
            verdict.oracle_checked += 1;
            let want = answers[distinct[inputs.route_bodies[s.route].as_str()]];
            if s.answer != want {
                report_failure(format_args!("route {} differs from the oracle", s.route));
                verdict.oracle_mismatches += 1;
                m.tally.fail_attempted();
            }
        }
    }

    // The reference replays the published updates in order.
    let reference = KosrService::new(Arc::new(ig), ServiceConfig::default());
    for u in &inputs.updates[..m.published] {
        if reference.apply_update(u).is_err() {
            report_failure(format_args!("the reference refused update {u:?}"));
            m.tally.add(&Outcome::Mismatch);
        }
    }
    let reference_answer = |q: &Query| -> Option<Answer> {
        let r = reference.submit(q.clone()).and_then(|t| t.wait()).ok()?;
        Some(Answer::of_witnesses(&r.outcome.witnesses))
    };

    let mut client = Client::new(fleet.gateway.addr(), ConnMode::KeepAlive);
    let mut tally = Tally::default();
    let step = (inputs.routes.len() / SAMPLE).max(1);
    for i in (0..inputs.routes.len()).step_by(step).take(SAMPLE) {
        let want = reference_answer(&inputs.routes[i]);
        let outcome =
            match client.call("POST", "/v1/route", Some(inputs.route_bodies[i].as_bytes())) {
                Ok(r) if r.status == 200 => match (Answer::of_route_body(&r.body), want) {
                    (Some(got), Some(want)) if got == want => Outcome::Ok,
                    _ => Outcome::Mismatch,
                },
                Ok(r) if want.is_none() && (400..500).contains(&r.status) => Outcome::Ok,
                Ok(r) => outcome_of(&format!("POST /v1/route {}", inputs.route_bodies[i]), &r),
                Err(_) => Outcome::Transport,
            };
        verdict.sample_checked += 1;
        if outcome == Outcome::Mismatch {
            report_failure(format_args!(
                "re-queried route {i} differs from the reference"
            ));
            verdict.oracle_mismatches += 1;
        }
        tally.add(&outcome);
    }

    // Standing queries: initial payload plus every delta must equal a
    // fresh reference query.
    drain_sessions(&mut client, fleet, &mut m.polls, &mut tally);
    for (i, session) in fleet.sessions.iter().enumerate() {
        let polls: Vec<&[u8]> = m
            .polls
            .iter()
            .filter(|(s, _)| *s == i)
            .map(|(_, b)| b.as_slice())
            .collect();
        let replayed = replay_session(&session.routes, &polls);
        let want = reference_answer(&inputs.subscription_queries[session.query]);
        let outcome = match replayed {
            Some((_, r)) if r > 0 => {
                verdict.resyncs += r;
                Outcome::Resync
            }
            Some((state, _)) if want.is_some() && Answer::of_json_routes(&state) == want => {
                Outcome::Ok
            }
            _ => Outcome::Mismatch,
        };
        verdict.sessions_checked += 1;
        if outcome == Outcome::Mismatch {
            report_failure(format_args!(
                "session {} replays to a stale answer",
                session.id
            ));
            verdict.oracle_mismatches += 1;
        }
        tally.add(&outcome);
    }
    m.tally.merge(tally);
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_replay_applies_deltas_in_order() {
        let route = |c: u64| format!(r#"{{"cost":{c},"vertices":[0,{c}]}}"#);
        let initial = json::parse(format!("[{},{}]", route(1), route(2)).as_bytes()).unwrap();
        let grow = format!(
            r#"{{"resync":false,"deltas":[{{"epoch":1,"new_len":3,"changed":[{{"rank":1,"route":{}}},{{"rank":2,"route":{}}}]}}]}}"#,
            route(3),
            route(4)
        );
        let shrink = r#"{"resync":false,"deltas":[{"epoch":2,"new_len":1,"changed":[]}]}"#;
        let (state, resyncs) =
            replay_session(&initial, &[grow.as_bytes(), shrink.as_bytes()]).unwrap();
        assert_eq!(resyncs, 0);
        assert_eq!(state, vec![json::parse(route(1).as_bytes()).unwrap()]);
        let resync = format!(r#"{{"resync":true,"epoch":3,"routes":[{}]}}"#, route(9));
        let (state, resyncs) = replay_session(&initial, &[resync.as_bytes()]).unwrap();
        assert_eq!((state.len(), resyncs), (1, 1));
    }
}
