//! Concurrency and interleaving properties of the SPSC ring.
//!
//! The lib's unit tests pin down each API in isolation; these tests
//! attack the *combinations*: single pushes interleaved with batched
//! pushes and partial drains (property-tested), and genuine two-thread
//! producer/consumer races with randomized batch sizes under both full
//! policies. Capacities around the ring's 64-slot chunk lock, with
//! bursts longer than a chunk, make runs split across chunk boundaries
//! and wrap the slot array. The invariant throughout is exactly-once
//! FIFO delivery: every enqueued item comes out once, in order, and
//! everything else is a counted drop — never a silent loss, never a
//! duplicate.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use unroller_engine::ring::ring;
use unroller_engine::FullPolicy;

/// Ring capacities below, at, just past and several times the ring's
/// 64-slot chunk.
const CAPACITIES: [usize; 8] = [1, 3, 63, 64, 65, 100, 200, 1024];

/// Replays a generated op sequence against a ring, tracking exactly
/// which items the ring accepted: `push` reports acceptance directly,
/// and `push_batch` under Drop accepts a prefix of the batch of length
/// `enqueued`. Under Block nothing may stall (no second thread could
/// unblock it), so each op offers only what still fits. Partial drains
/// are interleaved between ops; at the end the producer closes the ring
/// and the consumer drains the rest.
fn run_interleaved(
    ops: &[(bool, usize, bool, usize)],
    capacity: usize,
    policy: FullPolicy,
) -> Result<(), TestCaseError> {
    let (producer, consumer, counters) = ring::<u64>(capacity, policy);
    let mut expected: Vec<u64> = Vec::new();
    let mut received: Vec<u64> = Vec::new();
    let mut in_ring = 0usize;
    let mut next: u64 = 0;
    let mut dropped = 0usize;
    for &(use_batch, batch_len, drain, drain_max) in ops {
        let fits = match policy {
            FullPolicy::Drop => usize::MAX,
            FullPolicy::Block => capacity - in_ring,
        };
        if use_batch {
            let batch_len = batch_len.min(fits);
            let mut batch: Vec<u64> = (next..next + batch_len as u64).collect();
            next += batch_len as u64;
            let result = producer.push_batch(&mut batch);
            prop_assert!(batch.is_empty(), "push_batch must drain its input");
            prop_assert_eq!(
                result.enqueued + result.stalled + result.dropped,
                batch_len,
                "every batch item must be accounted"
            );
            let accepted = result.enqueued + result.stalled;
            expected.extend(next - batch_len as u64..next - batch_len as u64 + accepted as u64);
            in_ring += accepted;
            dropped += result.dropped;
        } else if fits > 0 {
            let item = next;
            next += 1;
            if producer.push(item) {
                expected.push(item);
                in_ring += 1;
            } else {
                dropped += 1;
            }
        }
        // Only drain when something is in flight: `recv_batch` blocks
        // on an empty, still-open ring (there is no producer thread
        // here to wake it).
        if drain && in_ring > 0 {
            let before = received.len();
            prop_assert!(consumer.recv_batch(&mut received, drain_max));
            in_ring -= received.len() - before;
        }
    }
    drop(producer);
    while consumer.recv_batch(&mut received, 16) {}
    let want: Vec<u64> = expected;
    prop_assert_eq!(&received, &want, "exactly-once FIFO");
    let snap = counters.snapshot();
    prop_assert_eq!(snap.enqueued, want.len() as u64);
    prop_assert_eq!(snap.dropped_full, dropped as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Drop policy, tiny ring: drops are frequent, and every one must
    /// be counted while the accepted prefix stays FIFO.
    #[test]
    fn interleaved_ops_stay_fifo_under_drop(
        ops in prop::collection::vec(
            (any::<bool>(), 0usize..8, any::<bool>(), 1usize..8),
            0..48,
        ),
    ) {
        run_interleaved(&ops, 4, FullPolicy::Drop)?;
    }

    /// Block policy with headroom: the single-threaded harness cannot
    /// unblock a stalled producer, so the ring is sized to never fill —
    /// which also proves Block never drops when space exists.
    #[test]
    fn interleaved_ops_stay_fifo_under_block(
        ops in prop::collection::vec(
            (any::<bool>(), 0usize..8, any::<bool>(), 1usize..8),
            0..48,
        ),
    ) {
        // 48 ops × at most 8 items each stays under 512.
        run_interleaved(&ops, 512, FullPolicy::Block)?;
    }

    /// Bursts and drains up to 150 items against capacities around the
    /// chunk size: runs straddle chunk boundaries and wrap the slot
    /// array, under both policies.
    #[test]
    fn chunk_straddling_ops_stay_fifo(
        capacity in 0usize..CAPACITIES.len(),
        block in any::<bool>(),
        ops in prop::collection::vec(
            (any::<bool>(), 0usize..150, any::<bool>(), 1usize..150),
            0..48,
        ),
    ) {
        let policy = if block { FullPolicy::Block } else { FullPolicy::Drop };
        run_interleaved(&ops, CAPACITIES[capacity], policy)?;
    }
}

/// Two real threads, Block policy, a ring far smaller than the stream:
/// the producer genuinely stalls and parks, and still every item must
/// arrive exactly once in order.
#[test]
fn two_thread_block_stress_delivers_every_item_in_order() {
    const TOTAL: u64 = 20_000;
    let (producer, consumer, counters) = ring::<u64>(8, FullPolicy::Block);
    let received = std::thread::scope(|scope| {
        let consumer_thread = scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            let mut received = Vec::with_capacity(TOTAL as usize);
            let mut out = Vec::new();
            while consumer.recv_batch(&mut out, rng.gen_range(1usize..32)) {
                received.append(&mut out);
            }
            received
        });
        scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(12);
            let mut next: u64 = 0;
            let mut batch = Vec::new();
            while next < TOTAL {
                if rng.gen_bool(0.3) {
                    assert!(producer.push(next), "Block with a live consumer");
                    next += 1;
                } else {
                    let len = (rng.gen_range(1u64..48)).min(TOTAL - next);
                    batch.extend(next..next + len);
                    next += len;
                    let result = producer.push_batch(&mut batch);
                    assert_eq!(result.dropped, 0, "Block with a live consumer");
                }
            }
            // Producer drops here, closing the ring.
        });
        consumer_thread.join().expect("consumer thread")
    });
    assert_eq!(received.len() as u64, TOTAL);
    assert!(
        received.iter().copied().eq(0..TOTAL),
        "exactly-once FIFO across threads"
    );
    let snap = counters.snapshot();
    assert_eq!(snap.enqueued, TOTAL);
    assert_eq!(snap.dropped_full, 0);
}

/// Two threads at the engine's default ring capacity (1024 slots, 16
/// chunks), bursts of 1..200 under both policies: bursts and drains
/// split across chunks and wrap the slot array while the other side
/// works, and delivery stays exactly-once FIFO with every loss counted.
#[test]
fn two_thread_default_capacity_stress_under_both_policies() {
    const TOTAL: u64 = 200_000;
    for policy in [FullPolicy::Block, FullPolicy::Drop] {
        let (producer, consumer, counters) = ring::<u64>(1024, policy);
        let (accepted, received) = std::thread::scope(|scope| {
            let consumer_thread = scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(31);
                let mut received = Vec::with_capacity(TOTAL as usize);
                while consumer.recv_batch(&mut received, rng.gen_range(1usize..200)) {}
                received
            });
            let producer_thread = scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(32);
                let mut accepted = Vec::with_capacity(TOTAL as usize);
                let mut next: u64 = 0;
                let mut batch = Vec::new();
                while next < TOTAL {
                    let len = (rng.gen_range(1u64..200)).min(TOTAL - next);
                    batch.extend(next..next + len);
                    let result = producer.push_batch(&mut batch);
                    let taken = (result.enqueued + result.stalled) as u64;
                    assert_eq!(taken + result.dropped as u64, len, "{policy:?}");
                    accepted.extend(next..next + taken);
                    next += len;
                }
                accepted
            });
            (
                producer_thread.join().expect("producer thread"),
                consumer_thread.join().expect("consumer thread"),
            )
        });
        if policy == FullPolicy::Block {
            assert_eq!(accepted.len() as u64, TOTAL, "Block with a live consumer");
        }
        assert_eq!(received, accepted, "{policy:?}: exactly-once FIFO");
        let snap = counters.snapshot();
        assert_eq!(snap.enqueued, accepted.len() as u64);
        assert_eq!(snap.enqueued + snap.dropped_full, TOTAL, "{policy:?}");
    }
}

/// Two threads under Drop: the consumer receives exactly the items the
/// producer saw accepted (per-push results and per-batch accepted
/// prefixes), in order — and the drop counter covers the rest.
#[test]
fn two_thread_drop_stress_loses_only_counted_items() {
    const TOTAL: u64 = 20_000;
    let (producer, consumer, counters) = ring::<u64>(8, FullPolicy::Drop);
    let (accepted, received) = std::thread::scope(|scope| {
        let consumer_thread = scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(21);
            let mut received = Vec::new();
            let mut out = Vec::new();
            while consumer.recv_batch(&mut out, rng.gen_range(1usize..32)) {
                received.append(&mut out);
            }
            received
        });
        let producer_thread = scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(22);
            let mut accepted = Vec::new();
            let mut next: u64 = 0;
            let mut batch = Vec::new();
            while next < TOTAL {
                if rng.gen_bool(0.3) {
                    if producer.push(next) {
                        accepted.push(next);
                    }
                    next += 1;
                } else {
                    let len = (rng.gen_range(1u64..48)).min(TOTAL - next);
                    batch.extend(next..next + len);
                    let result = producer.push_batch(&mut batch);
                    // Drop policy accepts a prefix and drops the tail.
                    let taken = (result.enqueued + result.stalled) as u64;
                    accepted.extend(next..next + taken);
                    next += len;
                }
            }
            accepted
        });
        (
            producer_thread.join().expect("producer thread"),
            consumer_thread.join().expect("consumer thread"),
        )
    });
    assert_eq!(received, accepted, "exactly the accepted items, in order");
    let snap = counters.snapshot();
    assert_eq!(snap.enqueued, accepted.len() as u64);
    assert_eq!(
        snap.enqueued + snap.dropped_full,
        TOTAL,
        "every offered item is either delivered or a counted drop"
    );
}
