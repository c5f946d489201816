//! Model checks for the slot-arena publication protocol
//! (`crates/core/src/slots.rs`, compiled into `rtopex-check` against the
//! shim lock and atomics) — alone and composed with the deque, exactly
//! the way `rtopex-runtime`'s `try_steal`/`fanout` compose them.

use rtopex_check::slots::{SlotBoard, SlotState};
use rtopex_check::steal::{decode_ticket, encode_ticket, steal_pair, DeltaGuard, Steal};
use rtopex_check::sync::Data;
use rtopex_check::time::Nanos;
use rtopex_check::{thread, Builder};
use std::sync::Arc;

/// Owner-side bounded wait on a slot: poll with yields so the model's
/// scheduler can run the helper; panics (fails the execution) if the slot
/// never resolves — which would be a real protocol bug.
fn poll_until_resolved<D>(board: &SlotBoard<D>, idx: usize) -> SlotState {
    for _ in 0..32 {
        match board.poll(idx) {
            SlotState::Pending => thread::yield_now(),
            s => return s,
        }
    }
    panic!("slot {idx} stuck Pending: helper neither completed nor declined");
}

/// Ready-flag publication: the owner may absorb a helper's result only
/// after seeing `Done`; the Release/Acquire pair on the flag must make
/// the payload write visible. The payload is a race-detected [`Data`], so
/// a missing edge fails the check even when the value looks right.
#[test]
fn ready_flag_publishes_helper_result() {
    let report = Builder::new().check(ready_flag_body);
    assert!(report.complete);
    assert!(report.executions >= 50);
}

/// Second seeded-bug test: weakening Release stores must break the
/// ready-flag protocol — the owner can observe `Done` without the
/// payload write, a data race the checker must report.
#[test]
fn mutation_weakened_ready_flag_is_caught() {
    let failure = Builder::new()
        .weaken_release_stores(true)
        .try_check(ready_flag_body)
        .expect_err("Release→Relaxed downgrade of the ready flag must be detected");
    assert!(
        failure.message.contains("data race") || failure.message.contains("assertion"),
        "unexpected failure kind: {failure}"
    );
}

fn ready_flag_body() {
    let board = Arc::new(SlotBoard::new(1, 0u64));
    let result = Arc::new(Data::new(0u64));
    let epoch = board.publish(1, |d| *d = 5);
    let (b2, r2) = (Arc::clone(&board), Arc::clone(&result));
    let helper = thread::spawn(move || {
        let Some(stage) = b2.enter(epoch) else {
            panic!("live epoch refused");
        };
        // Helper computes from the descriptor and writes the payload
        // BEFORE flipping the flag.
        let input = *stage.desc();
        r2.set(input * 2);
        stage.complete(0);
    });
    if poll_until_resolved(&board, 0) == SlotState::Done {
        assert_eq!(result.get(), 10, "absorbed result before the payload write");
    }
    helper.join().unwrap();
}

/// Epoch-ticket ABA: a thief that steals a stage-1 ticket but only gets
/// scheduled after the owner recovered the stage and republished must be
/// refused by `enter` — it may never touch stage 2's slots or payload.
#[test]
fn stale_epoch_ticket_is_refused() {
    let report = Builder::new().check(|| {
        let board = Arc::new(SlotBoard::new(1, 0u64));
        let payload = Arc::new(Data::new(0u64));
        let (mut w, s) = steal_pair(2);

        // Stage 1: published, ticket pushed.
        let e1 = board.publish(1, |d| *d = 1);
        w.push(encode_ticket(e1, 0)).unwrap();

        let (b2, p2) = (Arc::clone(&board), Arc::clone(&payload));
        let thief = thread::spawn(move || {
            for _ in 0..4 {
                match s.steal() {
                    Steal::Taken(t) => {
                        let (e, i) = decode_ticket(t);
                        match b2.enter(e) {
                            Some(stage) => {
                                p2.set(*stage.desc());
                                stage.complete(i);
                                return Some(true); // executed
                            }
                            None => return Some(false), // correctly refused
                        }
                    }
                    _ => thread::yield_now(),
                }
            }
            None // never got the ticket
        });

        // Owner: try to recover the ticket locally (pop). If the thief
        // already has it, wait out the slot; then republish — the epoch
        // bump must fence out any straggler.
        let recovered = w.pop();
        let stage1_local = if recovered.is_some() {
            payload.set(*board.enter(e1).expect("owner holds the live epoch"));
            true
        } else {
            // The thief holds the ticket; it must resolve the slot before
            // stage 1 can be considered over.
            let r = poll_until_resolved(&board, 0);
            assert_eq!(r, SlotState::Done);
            false
        };

        // Stage 2 (epoch bump blocks until any straggler guard drops).
        let e2 = board.publish(1, |d| *d = 2);
        assert!(e2 > e1);
        assert!(
            board.enter(e1).is_none(),
            "stage-1 ticket validated against stage 2"
        );
        // Stage 2 runs fully local.
        payload.set(*board.enter(e2).unwrap());
        let outcome = thief.join().unwrap();
        if stage1_local {
            assert_ne!(
                outcome,
                Some(true),
                "ticket executed remotely AND recovered locally"
            );
        }
        // Whatever interleaving ran, stage 2's local write is last in
        // happens-before order, so the payload must be stage 2's value.
        assert_eq!(payload.get(), 2, "straggler overwrote a newer stage");
    });
    assert!(report.complete);
    assert!(report.executions >= 200);
}

/// DeltaGuard admission racing the owner's local take: whichever side
/// reaches the ticket first, the subtask must be executed exactly once —
/// a declined steal must surface as `Declined` so the owner recovers it.
#[test]
fn delta_guard_decline_vs_local_take() {
    for admit in [false, true] {
        let report = Builder::new().check(move || {
            let board = Arc::new(SlotBoard::new(1, 0u64));
            let executions = Arc::new(Data::new(0u32));
            let (mut w, s) = steal_pair(2);
            let epoch = board.publish(1, |d| *d = 9);
            w.push(encode_ticket(epoch, 0)).unwrap();

            // δ = 20µs; the thief's idle window either fits tp + δ or
            // does not — the two runtime regimes.
            let guard = DeltaGuard {
                delta: Nanos::from_us_f64(20.0),
            };
            let tp = Nanos::from_us_f64(100.0);
            let idle_window = if admit {
                Nanos::from_us_f64(500.0)
            } else {
                Nanos::from_us_f64(50.0)
            };

            let (b2, x2) = (Arc::clone(&board), Arc::clone(&executions));
            let thief = thread::spawn(move || {
                for _ in 0..4 {
                    match s.steal() {
                        Steal::Taken(t) => {
                            let (e, i) = decode_ticket(t);
                            let Some(stage) = b2.enter(e) else { return };
                            if guard.admit(tp, Nanos::from_us_f64(1_000.0), idle_window) {
                                x2.with_mut(|n| *n += 1);
                                stage.complete(i);
                            } else {
                                stage.decline(i);
                            }
                            return;
                        }
                        _ => thread::yield_now(),
                    }
                }
            });

            match w.pop() {
                Some(_) => executions.with_mut(|n| *n += 1), // local take won
                None => {
                    // Thief holds it: Done means it executed, Declined
                    // means the owner must recover locally.
                    if poll_until_resolved(&board, 0) == SlotState::Declined {
                        executions.with_mut(|n| *n += 1);
                    }
                }
            }
            thief.join().unwrap();
            assert_eq!(
                executions.get(),
                1,
                "subtask must execute exactly once (admit={admit})"
            );
        });
        assert!(report.complete);
        assert!(
            report.executions >= 100,
            "admit={admit}: {}",
            report.executions
        );
    }
}

/// Publication is atomic from a helper's point of view: a helper that
/// validated epoch N must read epoch N's descriptor, never a torn mix
/// with N+1's — the write guard blocks the bump while any helper is in.
#[test]
fn descriptor_never_torn_across_epochs() {
    let report = Builder::new().check(|| {
        let board = Arc::new(SlotBoard::new(1, (0u64, 0u64)));
        let e1 = board.publish(1, |d| *d = (1, 10));
        let b2 = Arc::clone(&board);
        let helper = thread::spawn(move || {
            if let Some(stage) = b2.enter(e1) {
                let (a, b) = *stage.desc();
                assert_eq!(b, a * 10, "torn descriptor: ({a}, {b})");
                stage.complete(0);
            }
        });
        let _ = board.poll(0);
        // Republish concurrently with the helper's enter: the two-field
        // descriptor must change atomically.
        let _e2 = board.publish(1, |d| *d = (2, 20));
        helper.join().unwrap();
    });
    assert!(report.complete);
    assert!(report.executions >= 20);
}
