//! Deterministic event queue.
//!
//! Events are totally ordered by `(time, sequence)`: two events scheduled
//! for the same instant fire in scheduling order. This makes every run
//! bit-reproducible for a given seed, independent of hash maps or iteration
//! quirks.
//!
//! The queue is a **monotone radix queue** (Ahuja, Mehlhorn, Orlin &
//! Tarjan, JACM 1990). It relies on the engine never scheduling an event
//! before the last instant it popped, its *floor*. An event at `at` sits in
//! bucket 0 when `at == floor`, and otherwise in bucket
//! `64 − lzcnt(at ^ floor)`, the position of the highest bit in which `at`
//! differs from the floor. A pop that finds bucket 0 drained moves the
//! floor to the earliest live time of the lowest non-empty bucket and
//! redistributes that bucket's events into lower buckets. An event moves
//! to a strictly lower bucket each time, so at most as many times as the
//! index of the bucket it was pushed into.
//!
//! Cancelled events are tombstoned by sequence number and dropped when
//! their bucket is redistributed or when they reach the head of bucket 0;
//! they are never returned and never move the floor.

use crate::job::JobId;
use crate::time::{SimDuration, SimTime};

/// What happens when an event fires (internal engine vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Job reaches the WMS input queue (UI → WMS network hop done).
    ArriveAtWms(JobId),
    /// WMS finished match-making and dispatches the job to its CE.
    Dispatch(JobId),
    /// Job reaches the CE and enters the batch queue.
    EnterQueue(JobId),
    /// Oracle-mode start: the job's pre-drawn latency elapses.
    Start(JobId),
    /// A running job releases its slot.
    Finish(JobId),
    /// A transient middleware failure surfaces for this job.
    Fail(JobId),
    /// A client cancellation request reaches the middleware (only used when
    /// the configured cancellation delay is non-zero).
    CancelApply(JobId),
    /// A background (non-client) job arrives at a site.
    BackgroundArrival {
        /// Index of the target site.
        site: usize,
    },
    /// A synthetic background job injected by an external coupling layer
    /// (e.g. cross-shard load exchange) arrives with an explicit
    /// execution time; the target site is drawn at arrival time.
    InjectedArrival {
        /// Slot-hold time of the injected job.
        exec: SimDuration,
    },
    /// A client timer set through the controller API expires.
    Timer {
        /// Opaque token chosen by the controller.
        token: u64,
    },
}

impl EventKind {
    /// Splits the event into a tag and a 64-bit payload.
    fn pack(self) -> (u64, u64) {
        match self {
            EventKind::ArriveAtWms(id) => (0, id.0),
            EventKind::Dispatch(id) => (1, id.0),
            EventKind::EnterQueue(id) => (2, id.0),
            EventKind::Start(id) => (3, id.0),
            EventKind::Finish(id) => (4, id.0),
            EventKind::Fail(id) => (5, id.0),
            EventKind::CancelApply(id) => (6, id.0),
            EventKind::BackgroundArrival { site } => (7, site as u64),
            EventKind::InjectedArrival { exec } => (8, exec.0),
            EventKind::Timer { token } => (9, token),
        }
    }

    /// Rebuilds the event [`EventKind::pack`] split.
    fn unpack(tag: u64, payload: u64) -> Self {
        match tag {
            0 => EventKind::ArriveAtWms(JobId(payload)),
            1 => EventKind::Dispatch(JobId(payload)),
            2 => EventKind::EnterQueue(JobId(payload)),
            3 => EventKind::Start(JobId(payload)),
            4 => EventKind::Finish(JobId(payload)),
            5 => EventKind::Fail(JobId(payload)),
            6 => EventKind::CancelApply(JobId(payload)),
            7 => EventKind::BackgroundArrival {
                site: payload as usize,
            },
            8 => EventKind::InjectedArrival {
                exec: SimDuration(payload),
            },
            9 => EventKind::Timer { token: payload },
            _ => unreachable!("unknown event tag {tag}"),
        }
    }
}

/// Bits of [`Scheduled::key`] below the sequence number.
const TAG_BITS: u32 = 8;

/// One pending event, packed into 24 bytes.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    /// Fire time in milliseconds.
    at: u64,
    /// The job id, site, execution time or timer token.
    payload: u64,
    /// `seq << 8 | tag`.
    key: u64,
}

// pinned: the record's size is what the queue's memory scales with
const _: () = assert!(std::mem::size_of::<Scheduled>() == 24);

impl Scheduled {
    fn seq(&self) -> u64 {
        self.key >> TAG_BITS
    }

    fn kind(&self) -> EventKind {
        EventKind::unpack(self.key & ((1 << TAG_BITS) - 1), self.payload)
    }
}

/// Number of buckets: bucket 0 for the floor, one per bit of a time.
const BUCKETS: usize = 65;

/// The bucket of an event at `at` against `floor`.
fn bucket_of(at: u64, floor: u64) -> usize {
    (64 - (at ^ floor).leading_zeros()) as usize
}

/// Min-queue of scheduled events with stable same-instant ordering.
///
/// Events may only be scheduled at or after the time of the last popped
/// event; [`EventQueue::schedule`] asserts it.
#[derive(Debug)]
pub struct EventQueue {
    /// `buckets[0]` holds the events at `floor` in sequence order, from
    /// `head` on; `buckets[i]`, `i ≥ 1`, the events whose highest bit
    /// differing from `floor` is bit `i − 1`.
    buckets: [Vec<Scheduled>; BUCKETS],
    /// Bit `i − 1` is set while `buckets[i]` is non-empty, for `i ≥ 1`.
    nonempty: u64,
    /// Next unread index of `buckets[0]`.
    head: usize,
    /// Time of the last popped event (zero before the first pop).
    floor: u64,
    /// Scheduled events neither popped nor cancelled.
    live: usize,
    /// Tombstone bit per sequence number, set by [`EventQueue::cancel`].
    cancelled: Vec<u64>,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            nonempty: 0,
            head: 0,
            floor: 0,
            live: 0,
            cancelled: Vec::new(),
            next_seq: 0,
        }
    }
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at absolute time `at` and returns its sequence
    /// number, the handle [`EventQueue::cancel`] takes.
    ///
    /// Panics if `at` is before the time of the last popped event.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) -> u64 {
        assert!(
            at.0 >= self.floor,
            "event scheduled at {at} before the queue's last popped instant"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(seq < 1 << (64 - TAG_BITS), "sequence number overflow");
        let (tag, payload) = kind.pack();
        self.push(Scheduled {
            at: at.0,
            payload,
            key: seq << TAG_BITS | tag,
        });
        self.live += 1;
        seq
    }

    /// Appends `ev` to its bucket against the current floor.
    fn push(&mut self, ev: Scheduled) {
        let i = bucket_of(ev.at, self.floor);
        self.buckets[i].push(ev);
        if i > 0 {
            self.nonempty |= 1 << (i - 1);
        }
    }

    /// Cancels the pending event with sequence number `seq`: it is dropped
    /// unseen. An event may be cancelled at most once, and only before it
    /// pops (debug-asserted).
    pub fn cancel(&mut self, seq: u64) {
        debug_assert!(seq < self.next_seq, "cancel of an unscheduled event");
        debug_assert!(
            !self.is_cancelled(seq),
            "event {seq} cancelled twice or after it popped"
        );
        self.tombstone(seq);
        self.live -= 1;
    }

    fn tombstone(&mut self, seq: u64) {
        let word = (seq >> 6) as usize;
        if word >= self.cancelled.len() {
            self.cancelled.resize(word + 1, 0);
        }
        self.cancelled[word] |= 1 << (seq & 63);
    }

    fn is_cancelled(&self, seq: u64) -> bool {
        self.cancelled
            .get((seq >> 6) as usize)
            .is_some_and(|w| w >> (seq & 63) & 1 == 1)
    }

    /// Removes every pending event, rewinds the floor and the sequence
    /// counter and forgets every tombstone, as if the queue had just been
    /// constructed, but keeping the buckets' allocations. Resetting
    /// `next_seq` matters for reproducibility: the sequence number breaks
    /// same-instant ties, so a reused queue must hand out the same numbers
    /// a fresh one would.
    pub fn clear(&mut self) {
        self.buckets[0].clear();
        while self.nonempty != 0 {
            let i = self.nonempty.trailing_zeros() as usize + 1;
            self.buckets[i].clear();
            self.nonempty &= self.nonempty - 1;
        }
        self.head = 0;
        self.floor = 0;
        self.live = 0;
        self.cancelled.clear();
        self.next_seq = 0;
    }

    /// Pops the earliest live event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.pop_until(SimTime::MAX)
    }

    /// Pops the earliest live event if it fires at or before `cap`.
    ///
    /// When it fires after `cap`, returns `None` and leaves the floor
    /// where it is, so events may still be scheduled at any instant from
    /// the last popped one on.
    pub fn pop_until(&mut self, cap: SimTime) -> Option<(SimTime, EventKind)> {
        loop {
            while let Some(&ev) = self.buckets[0].get(self.head) {
                if ev.at > cap.0 {
                    return None;
                }
                self.head += 1;
                if self.is_cancelled(ev.seq()) {
                    continue;
                }
                // a debug build tombstones what it pops, so that a late
                // cancel trips the assertion in `cancel`
                #[cfg(debug_assertions)]
                self.tombstone(ev.seq());
                self.live -= 1;
                return Some((SimTime(ev.at), ev.kind()));
            }
            self.release(0);
            self.head = 0;
            if self.nonempty == 0 {
                return None;
            }
            let i = self.nonempty.trailing_zeros() as usize + 1;
            let earliest = self.buckets[i]
                .iter()
                .filter(|ev| !self.is_cancelled(ev.seq()))
                .map(|ev| ev.at)
                .min();
            if earliest.is_some_and(|at| at > cap.0) {
                return None;
            }
            // every event of bucket i lands in a lower bucket of the new
            // floor. All events of one instant share a bucket and move
            // together in push order, so bucket 0 always holds its
            // instant's events in sequence order and pops need no sort
            let mut bucket = std::mem::take(&mut self.buckets[i]);
            self.nonempty &= !(1 << (i - 1));
            if let Some(at) = earliest {
                self.floor = at;
                for ev in bucket.drain(..) {
                    if !self.is_cancelled(ev.seq()) {
                        self.push(ev);
                    }
                }
            }
            self.buckets[i] = bucket;
            self.release(i);
        }
    }

    /// Empties the drained bucket `i`, keeping its buffer while the
    /// buffer's capacity is at most `max(64, live / 8)` and freeing it
    /// otherwise, so a transient burst does not pin its peak allocation in
    /// every bucket it passed through.
    fn release(&mut self, i: usize) {
        if self.buckets[i].capacity() > (self.live / 8).max(64) {
            self.buckets[i] = Vec::new();
        } else {
            self.buckets[i].clear();
        }
    }

    /// Number of pending events, cancelled ones excluded.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token } => token,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), EventKind::Timer { token: 3 });
        q.schedule(SimTime(10), EventKind::Timer { token: 1 });
        q.schedule(SimTime(20), EventKind::Timer { token: 2 });
        assert_eq!(tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_fifo() {
        let mut q = EventQueue::new();
        for token in 0..100 {
            q.schedule(SimTime(5), EventKind::Timer { token });
        }
        assert_eq!(tokens(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_fifo_survives_redistribution() {
        // one instant's events pushed around others, across several floor
        // moves: they share a bucket at every step and pop in push order
        let mut q = EventQueue::new();
        for token in 0..40u64 {
            let at = if token % 2 == 0 {
                1_000
            } else {
                3 + token * 17
            };
            q.schedule(SimTime(at), EventKind::Timer { token });
        }
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime(20)); // token 1 at 3 + 17
        for token in 40..60u64 {
            q.schedule(SimTime(1_000), EventKind::Timer { token });
        }
        let order = tokens(&mut q);
        let late: Vec<u64> = order
            .iter()
            .copied()
            .filter(|&t| t % 2 == 0 || t >= 40)
            .collect();
        let mut expected: Vec<u64> = (0..40).filter(|t| t % 2 == 0).collect();
        expected.extend(40..60);
        assert_eq!(late, expected);
    }

    #[test]
    fn len_counts_live_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(7), EventKind::ArriveAtWms(JobId(1)));
        let dead = q.schedule(SimTime(9), EventKind::Timer { token: 0 });
        assert_eq!(q.len(), 2);
        q.cancel(dead);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(
            q.pop(),
            Some((SimTime(7), EventKind::ArriveAtWms(JobId(1))))
        );
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "before the queue's last popped instant")]
    fn scheduling_before_the_last_pop_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), EventKind::Timer { token: 1 });
        assert_eq!(q.pop().unwrap().0, SimTime(10));
        q.schedule(SimTime(5), EventKind::Timer { token: 2 });
    }

    #[test]
    fn pop_until_never_moves_the_floor_past_an_unpopped_instant() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), EventKind::Timer { token: 100 });
        assert_eq!(q.pop_until(SimTime(50)), None);
        q.schedule(SimTime(60), EventKind::Timer { token: 60 });
        assert_eq!(tokens(&mut q), vec![60, 100]);
    }

    #[test]
    fn cancelled_events_never_pop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(10), EventKind::Timer { token: 1 });
        q.schedule(SimTime(10), EventKind::Timer { token: 2 });
        let c = q.schedule(SimTime(900), EventKind::Timer { token: 3 });
        q.cancel(a);
        q.cancel(c);
        assert_eq!(tokens(&mut q), vec![2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cancelled twice or after it popped")]
    fn cancelling_a_popped_event_is_caught_in_debug_builds() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(10), EventKind::Timer { token: 1 });
        q.pop().unwrap();
        q.cancel(a);
    }

    #[test]
    fn clear_forgets_tombstones() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(10), EventKind::Timer { token: 1 });
        q.cancel(a);
        q.clear();
        q.schedule(SimTime(10), EventKind::Timer { token: 2 });
        assert_eq!(tokens(&mut q), vec![2]);
    }
}
