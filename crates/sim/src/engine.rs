//! Virtual clock and event queue.
//!
//! Two interchangeable engines implement the same deterministic
//! `(time, insertion order)` delivery contract behind the [`EventQueue`]
//! trait:
//!
//! * [`Sim`] — the production engine: per-processor event *lanes* (one
//!   small binary heap per destination processor) joined by a *merge
//!   front* (an indexed k-way min-heap over the lane heads), with event
//!   payloads parked in a slot arena so the steady state allocates
//!   nothing. A broadcast stays ONE logical entry fanned out lazily at
//!   delivery. Built for 1000+-processor sweeps where a single global
//!   heap of depth `O(total events)` dominates the run time.
//! * [`SingleHeapSim`] — the historical single global binary heap, kept
//!   as the differential-testing reference and microbenchmark baseline.
//!
//! Both engines pop the globally smallest `(time, seq)` pair, so their
//! event sequences are bit-identical — the property the engine-equivalence
//! proptests in `mf-core` and the `engine` criterion bench both lean on.

use std::collections::BinaryHeap;

/// Virtual time, in abstract ticks. The multifrontal layer uses
/// 1 tick = 1 µs with a flop rate expressed in flops/µs.
pub type Time = u64;

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventPayload<M> {
    /// A message delivered to processor `to`.
    Message {
        /// Sending processor.
        from: usize,
        /// Receiving processor.
        to: usize,
        /// Payload.
        msg: M,
    },
    /// A locally scheduled timer on processor `proc` (task completions,
    /// periodic checks, ...), carrying an opaque key.
    Timer {
        /// Processor the timer belongs to.
        proc: usize,
        /// Caller-defined discriminator.
        key: u64,
    },
}

/// A fired event: when plus what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<M> {
    /// Firing time.
    pub at: Time,
    /// Payload.
    pub payload: EventPayload<M>,
}

/// The deterministic event-queue contract both engines implement.
///
/// Events fire in `(time, insertion order)` order: ties break FIFO, so a
/// simulation is a pure function of its inputs — the property that lets
/// the experiment tables be regenerated bit-identically. Drivers are
/// written against this trait so the same run can be executed on either
/// engine and compared field for field.
pub trait EventQueue<M: Clone> {
    /// Current virtual time.
    fn now(&self) -> Time;
    /// Number of events delivered so far.
    fn delivered(&self) -> u64;
    /// Number of pending events (counting every undelivered message of a
    /// broadcast block individually).
    fn pending(&self) -> usize;
    /// Schedules `payload` to fire `delay` ticks from now.
    fn schedule(&mut self, delay: Time, payload: EventPayload<M>);
    /// Schedules a timer on `proc` after `delay`.
    fn schedule_timer(&mut self, proc: usize, delay: Time, key: u64) {
        self.schedule(delay, EventPayload::Timer { proc, key });
    }
    /// Schedules delivery of clones of `msg` from `from` to every other
    /// processor in `0..nprocs`, `delay` ticks from now. Exactly
    /// equivalent to `nprocs - 1` back-to-back [`EventQueue::schedule`]
    /// calls of `Message` payloads — same firing time, same
    /// ascending-target FIFO order against every other event — but a
    /// single queue entry.
    fn schedule_broadcast(&mut self, delay: Time, from: usize, nprocs: usize, msg: M);
    /// Pops the earliest pending event, advancing the clock to its firing
    /// time. `None` when the queue is empty — schedule more events and
    /// popping resumes.
    fn pop(&mut self) -> Option<Event<M>>;
}

/// What one queue entry delivers: a single event, or a whole broadcast
/// block (the same message to every processor but the sender, all at one
/// instant). A broadcast's per-target messages would occupy contiguous
/// sequence numbers at a single firing time, so no other event can ever
/// interleave them — storing the block as ONE entry and unrolling it at
/// delivery keeps the event sequence bit-identical while cutting the
/// queue traffic of an n-processor broadcast from n-1 sifts to one.
#[derive(Debug)]
enum Queued<M> {
    One(EventPayload<M>),
    Broadcast { from: usize, nprocs: usize, msg: M },
}

/// An in-progress broadcast block: delivers `msg` to each `to` in
/// `0..nprocs` except `from`, in ascending order, before the queue pops
/// anything else (see [`Queued`] for why that order is exact).
#[derive(Debug)]
struct ActiveBroadcast<M> {
    at: Time,
    from: usize,
    nprocs: usize,
    next: usize,
    msg: M,
}

impl<M: Clone> ActiveBroadcast<M> {
    /// Yields the next delivery of the block, or `None` when drained.
    /// Returns the message by move on the last delivery (no clone).
    fn next_delivery(mut self) -> Option<(Event<M>, Option<Self>)> {
        if self.next == self.from {
            self.next += 1;
        }
        if self.next >= self.nprocs {
            return None;
        }
        let to = self.next;
        self.next += 1;
        let (at, from) = (self.at, self.from);
        let (msg, rest) = if broadcast_targets(self.from, self.nprocs, self.next) == 0 {
            (self.msg, None)
        } else {
            (self.msg.clone(), Some(self))
        };
        Some((Event { at, payload: EventPayload::Message { from, to, msg } }, rest))
    }
}

/// Number of undelivered targets of a broadcast block whose scan is at
/// position `next`: the members of `next..nprocs` minus the sender.
fn broadcast_targets(from: usize, nprocs: usize, next: usize) -> usize {
    (nprocs.saturating_sub(next)) - usize::from(from >= next && from < nprocs)
}

// ---------------------------------------------------------------------------
// Sharded engine: per-processor lanes + merge front + slot arena.
// ---------------------------------------------------------------------------

/// One queued entry of a lane: the global ordering key plus the index of
/// the payload's arena slot. 24 bytes, `Copy` — lane sifts move no
/// payloads.
#[derive(Debug, Clone, Copy)]
struct LaneEntry {
    at: Time,
    seq: u64,
    slot: u32,
}

impl LaneEntry {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// Sentinel for "lane not in the merge front".
const ABSENT: u32 = u32::MAX;

/// The production event queue: per-processor lanes with a merge front.
///
/// Every event is routed to the lane of the processor it will fire on
/// (`to` for messages, `proc` for timers, the *sender* for broadcast
/// blocks — the lane only orders, delivery targets come from the block).
/// Each lane is a small binary min-heap of `LaneEntry`; a lane's head
/// is its earliest event. The *merge front* is an indexed binary min-heap
/// over the non-empty lanes, keyed by their heads: the global minimum is
/// the front's root's head, so a pop costs `O(log lane + log P)` instead
/// of `O(log total)` — and pushes to a lane whose head does not change
/// (the common case under load) touch the front not at all.
///
/// Payloads live in a slot arena recycled through a free list: after
/// warm-up, enqueue and dispatch allocate nothing (the PR-5 recorder's
/// arena discipline applied to the event core).
///
/// Sequence numbers are global, so the pop order is exactly the
/// single-heap order: smallest `(time, seq)` first, FIFO on ties.
#[derive(Debug)]
pub struct Sim<M> {
    now: Time,
    seq: u64,
    delivered: u64,
    pending: usize,
    /// Per-processor lanes; index = processor id. Grown on demand.
    lanes: Vec<Vec<LaneEntry>>,
    /// Merge front: lane ids, heap-ordered by each lane's head key.
    front: Vec<u32>,
    /// Position of each lane in `front` (`ABSENT` when the lane is empty).
    pos: Vec<u32>,
    /// Payload arena; `LaneEntry::slot` indexes into it.
    slots: Vec<Option<Queued<M>>>,
    /// Recycled arena slots.
    free: Vec<u32>,
    /// Broadcast block currently being unrolled.
    bcast: Option<ActiveBroadcast<M>>,
}

impl<M> Default for Sim<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Sim<M> {
    /// Empty queue at time zero; lanes grow on demand.
    pub fn new() -> Self {
        Self::with_procs(0)
    }

    /// Empty queue with `nprocs` lanes preallocated (avoids growth checks
    /// resizing mid-run when the processor count is known up front).
    pub fn with_procs(nprocs: usize) -> Self {
        Sim {
            now: 0,
            seq: 0,
            delivered: 0,
            pending: 0,
            lanes: (0..nprocs).map(|_| Vec::new()).collect(),
            front: Vec::with_capacity(nprocs),
            pos: vec![ABSENT; nprocs],
            slots: Vec::new(),
            free: Vec::new(),
            bcast: None,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of pending events (counting every undelivered message of a
    /// broadcast block individually).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Schedules `payload` to fire `delay` ticks from now.
    pub fn schedule(&mut self, delay: Time, payload: EventPayload<M>) {
        let lane = match &payload {
            EventPayload::Message { to, .. } => *to,
            EventPayload::Timer { proc, .. } => *proc,
        };
        let at = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        let slot = self.alloc_slot(Queued::One(payload));
        self.lane_push(lane, LaneEntry { at, seq, slot });
        self.pending += 1;
    }

    /// Schedules a timer on `proc` after `delay`.
    pub fn schedule_timer(&mut self, proc: usize, delay: Time, key: u64) {
        self.schedule(delay, EventPayload::Timer { proc, key });
    }

    /// Schedules a broadcast block (see [`EventQueue::schedule_broadcast`]).
    pub fn schedule_broadcast(&mut self, delay: Time, from: usize, nprocs: usize, msg: M) {
        let targets = broadcast_targets(from, nprocs, 0);
        if targets == 0 {
            return;
        }
        let at = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        let slot = self.alloc_slot(Queued::Broadcast { from, nprocs, msg });
        self.lane_push(from, LaneEntry { at, seq, slot });
        self.pending += targets;
    }

    #[inline]
    fn alloc_slot(&mut self, q: Queued<M>) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(q);
                i
            }
            None => {
                self.slots.push(Some(q));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Head ordering key of a (non-empty) lane.
    #[inline]
    fn head_key(&self, lane: u32) -> (Time, u64) {
        self.lanes[lane as usize][0].key()
    }

    fn lane_push(&mut self, lane: usize, e: LaneEntry) {
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, Vec::new);
            self.pos.resize(lane + 1, ABSENT);
        }
        let heap = &mut self.lanes[lane];
        let was_empty = heap.is_empty();
        let old_head = heap.first().map(LaneEntry::key);
        // Sift the new entry up the lane's min-heap.
        heap.push(e);
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[i].key() < heap[parent].key() {
                heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
        // Update the merge front only when the lane's head changed.
        if was_empty {
            self.front_insert(lane as u32);
        } else if Some(e.key()) < old_head {
            let p = self.pos[lane];
            debug_assert_ne!(p, ABSENT, "non-empty lane must be in the front");
            self.front_sift_up(p as usize);
        }
    }

    /// Pops the root of lane `lane`'s min-heap (must be non-empty).
    fn lane_pop(&mut self, lane: usize) -> LaneEntry {
        let heap = &mut self.lanes[lane];
        let top = heap.swap_remove(0);
        // Sift the swapped-in tail element back down.
        let len = heap.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let c = if r < len && heap[r].key() < heap[l].key() { r } else { l };
            if heap[c].key() < heap[i].key() {
                heap.swap(i, c);
                i = c;
            } else {
                break;
            }
        }
        top
    }

    fn front_insert(&mut self, lane: u32) {
        self.front.push(lane);
        let i = self.front.len() - 1;
        self.pos[lane as usize] = i as u32;
        self.front_sift_up(i);
    }

    fn front_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.head_key(self.front[i]) < self.head_key(self.front[parent]) {
                self.front_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn front_sift_down(&mut self, mut i: usize) {
        let len = self.front.len();
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let c = if r < len && self.head_key(self.front[r]) < self.head_key(self.front[l]) {
                r
            } else {
                l
            };
            if self.head_key(self.front[c]) < self.head_key(self.front[i]) {
                self.front_swap(i, c);
                i = c;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn front_swap(&mut self, a: usize, b: usize) {
        self.front.swap(a, b);
        self.pos[self.front[a] as usize] = a as u32;
        self.pos[self.front[b] as usize] = b as u32;
    }

    /// Pops the globally earliest entry: the head of the front's root
    /// lane (the k-way-merge step). Restores the front invariant for the
    /// popped lane (re-sink on a later head, removal on empty).
    fn pop_earliest(&mut self) -> Option<(Time, Queued<M>)> {
        let lane = *self.front.first()?;
        let e = self.lane_pop(lane as usize);
        if self.lanes[lane as usize].is_empty() {
            // Remove the root lane from the front.
            let last = self.front.len() - 1;
            self.front_swap(0, last);
            self.front.pop();
            self.pos[lane as usize] = ABSENT;
            if !self.front.is_empty() {
                self.front_sift_down(0);
            }
        } else {
            // The lane's next head is later: sink it to its new rank.
            self.front_sift_down(0);
        }
        let q = self.slots[e.slot as usize].take().expect("arena slot must be occupied");
        self.free.push(e.slot);
        Some((e.at, q))
    }
}

impl<M: Clone> Sim<M> {
    /// Delivers the next message of the active broadcast block, if any.
    fn next_broadcast_delivery(&mut self) -> Option<Event<M>> {
        let b = self.bcast.take()?;
        let (ev, rest) = b.next_delivery()?;
        self.bcast = rest;
        self.delivered += 1;
        self.pending -= 1;
        Some(ev)
    }
}

/// Draining iteration: each `next()` pops the earliest pending event,
/// advancing the clock to its firing time. Yields `None` when the queue
/// is empty — schedule more events and iteration resumes.
impl<M: Clone> Iterator for Sim<M> {
    type Item = Event<M>;

    fn next(&mut self) -> Option<Event<M>> {
        loop {
            if let Some(e) = self.next_broadcast_delivery() {
                return Some(e);
            }
            let (at, payload) = self.pop_earliest()?;
            debug_assert!(at >= self.now, "time cannot run backwards");
            self.now = at;
            match payload {
                Queued::One(p) => {
                    self.delivered += 1;
                    self.pending -= 1;
                    return Some(Event { at, payload: p });
                }
                Queued::Broadcast { from, nprocs, msg } => {
                    // Unrolled by next_broadcast_delivery on the next
                    // loop iteration.
                    self.bcast = Some(ActiveBroadcast { at, from, nprocs, next: 0, msg });
                }
            }
        }
    }
}

impl<M: Clone> EventQueue<M> for Sim<M> {
    fn now(&self) -> Time {
        Sim::now(self)
    }
    fn delivered(&self) -> u64 {
        Sim::delivered(self)
    }
    fn pending(&self) -> usize {
        Sim::pending(self)
    }
    fn schedule(&mut self, delay: Time, payload: EventPayload<M>) {
        Sim::schedule(self, delay, payload)
    }
    fn schedule_broadcast(&mut self, delay: Time, from: usize, nprocs: usize, msg: M) {
        Sim::schedule_broadcast(self, delay, from, nprocs, msg)
    }
    fn pop(&mut self) -> Option<Event<M>> {
        self.next()
    }
}

// ---------------------------------------------------------------------------
// Reference engine: one global binary heap.
// ---------------------------------------------------------------------------

/// A queued event with its payload stored inline: the heap is the only
/// data structure on the hot path (one sift per push/pop, no per-event
/// hash-map insert/remove). Ordering ignores the payload and inverts
/// `(time, seq)` so the max-heap pops the earliest event, FIFO on ties.
#[derive(Debug)]
struct HeapEntry<M> {
    at: Time,
    seq: u64,
    payload: Queued<M>,
}

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for HeapEntry<M> {}

impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: smallest (time, seq) is the heap maximum.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The historical single-global-heap engine, kept as the
/// differential-testing reference: same API, same delivery contract,
/// `O(log total-events)` per operation. The engine-equivalence proptests
/// assert [`Sim`] reproduces its event sequence bit for bit; the `engine`
/// criterion bench measures what the lanes buy at high processor counts.
#[derive(Debug)]
pub struct SingleHeapSim<M> {
    now: Time,
    seq: u64,
    queue: BinaryHeap<HeapEntry<M>>,
    bcast: Option<ActiveBroadcast<M>>,
    delivered: u64,
}

impl<M> Default for SingleHeapSim<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> SingleHeapSim<M> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        SingleHeapSim { now: 0, seq: 0, queue: BinaryHeap::new(), bcast: None, delivered: 0 }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of pending events (counting every undelivered message of a
    /// broadcast block individually).
    pub fn pending(&self) -> usize {
        let queued: usize = self
            .queue
            .iter()
            .map(|e| match &e.payload {
                Queued::One(_) => 1,
                Queued::Broadcast { from, nprocs, .. } => broadcast_targets(*from, *nprocs, 0),
            })
            .sum();
        let draining =
            self.bcast.as_ref().map_or(0, |b| broadcast_targets(b.from, b.nprocs, b.next));
        queued + draining
    }

    /// Schedules `payload` to fire `delay` ticks from now.
    pub fn schedule(&mut self, delay: Time, payload: EventPayload<M>) {
        let at = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(HeapEntry { at, seq, payload: Queued::One(payload) });
    }

    /// Schedules a timer on `proc` after `delay`.
    pub fn schedule_timer(&mut self, proc: usize, delay: Time, key: u64) {
        self.schedule(delay, EventPayload::Timer { proc, key });
    }

    /// Schedules a broadcast block (see [`EventQueue::schedule_broadcast`]).
    pub fn schedule_broadcast(&mut self, delay: Time, from: usize, nprocs: usize, msg: M) {
        if broadcast_targets(from, nprocs, 0) == 0 {
            return;
        }
        let at = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(HeapEntry { at, seq, payload: Queued::Broadcast { from, nprocs, msg } });
    }
}

impl<M: Clone> SingleHeapSim<M> {
    /// Delivers the next message of the active broadcast block, if any.
    fn next_broadcast_delivery(&mut self) -> Option<Event<M>> {
        let b = self.bcast.take()?;
        let (ev, rest) = b.next_delivery()?;
        self.bcast = rest;
        self.delivered += 1;
        Some(ev)
    }
}

/// Draining iteration, identical contract to [`Sim`]'s.
impl<M: Clone> Iterator for SingleHeapSim<M> {
    type Item = Event<M>;

    fn next(&mut self) -> Option<Event<M>> {
        loop {
            if let Some(e) = self.next_broadcast_delivery() {
                return Some(e);
            }
            let HeapEntry { at, payload, .. } = self.queue.pop()?;
            debug_assert!(at >= self.now, "time cannot run backwards");
            self.now = at;
            match payload {
                Queued::One(p) => {
                    self.delivered += 1;
                    return Some(Event { at, payload: p });
                }
                Queued::Broadcast { from, nprocs, msg } => {
                    self.bcast = Some(ActiveBroadcast { at, from, nprocs, next: 0, msg });
                }
            }
        }
    }
}

impl<M: Clone> EventQueue<M> for SingleHeapSim<M> {
    fn now(&self) -> Time {
        SingleHeapSim::now(self)
    }
    fn delivered(&self) -> u64 {
        SingleHeapSim::delivered(self)
    }
    fn pending(&self) -> usize {
        SingleHeapSim::pending(self)
    }
    fn schedule(&mut self, delay: Time, payload: EventPayload<M>) {
        SingleHeapSim::schedule(self, delay, payload)
    }
    fn schedule_broadcast(&mut self, delay: Time, from: usize, nprocs: usize, msg: M) {
        SingleHeapSim::schedule_broadcast(self, delay, from, nprocs, msg)
    }
    fn pop(&mut self) -> Option<Event<M>> {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<&'static str> = Sim::new();
        sim.schedule(10, EventPayload::Timer { proc: 0, key: 1 });
        sim.schedule(5, EventPayload::Timer { proc: 0, key: 2 });
        sim.schedule(7, EventPayload::Timer { proc: 0, key: 3 });
        let keys: Vec<u64> = std::iter::from_fn(|| sim.next())
            .map(|e| match e.payload {
                EventPayload::Timer { key, .. } => key,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![2, 3, 1]);
        assert_eq!(sim.now(), 10);
    }

    #[test]
    fn ties_break_fifo() {
        let mut sim: Sim<u32> = Sim::new();
        for k in 0..5 {
            sim.schedule(3, EventPayload::Timer { proc: 0, key: k });
        }
        let keys: Vec<u64> = std::iter::from_fn(|| sim.next())
            .map(|e| match e.payload {
                EventPayload::Timer { key, .. } => key,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ties_break_fifo_across_lanes() {
        // Five processors, same instant: delivery follows insertion
        // order, not lane order — the merge front must compare seq.
        let mut sim: Sim<u32> = Sim::new();
        for (i, proc) in [4usize, 1, 3, 0, 2].into_iter().enumerate() {
            sim.schedule(3, EventPayload::Timer { proc, key: i as u64 });
        }
        let keys: Vec<u64> = std::iter::from_fn(|| sim.next())
            .map(|e| match e.payload {
                EventPayload::Timer { key, .. } => key,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clock_advances_monotonically_with_nested_schedules() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(4, EventPayload::Timer { proc: 0, key: 0 });
        let mut times = Vec::new();
        while let Some(e) = sim.next() {
            times.push(e.at);
            if let EventPayload::Timer { key, .. } = e.payload {
                if key < 3 {
                    sim.schedule(2, EventPayload::Timer { proc: 0, key: key + 1 });
                }
            }
        }
        assert_eq!(times, vec![4, 6, 8, 10]);
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut sim: Sim<u32> = Sim::new();
        assert!(sim.next().is_none());
        assert_eq!(sim.delivered(), 0);
    }

    #[test]
    fn broadcast_matches_per_message_schedules_exactly() {
        // The broadcast fast path must produce the same event sequence as
        // the per-target schedule loop it replaces, including FIFO
        // interleaving with other events at the same instant.
        let mut a: Sim<u32> = Sim::new();
        let mut b: Sim<u32> = Sim::new();
        a.schedule(5, EventPayload::Timer { proc: 9, key: 0 });
        b.schedule(5, EventPayload::Timer { proc: 9, key: 0 });
        for to in 0..4 {
            if to != 1 {
                a.schedule(5, EventPayload::Message { from: 1, to, msg: 7 });
            }
        }
        b.schedule_broadcast(5, 1, 4, 7);
        a.schedule(5, EventPayload::Timer { proc: 9, key: 1 });
        b.schedule(5, EventPayload::Timer { proc: 9, key: 1 });
        assert_eq!(a.pending(), b.pending());
        loop {
            let (ea, eb) = (a.next(), b.next());
            assert_eq!(ea, eb);
            if ea.is_none() {
                break;
            }
        }
        assert_eq!(a.delivered(), b.delivered());
    }

    #[test]
    fn broadcast_with_no_targets_schedules_nothing() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule_broadcast(3, 0, 1, 42);
        assert_eq!(sim.pending(), 0);
        assert!(sim.next().is_none());
    }

    #[test]
    fn events_scheduled_during_broadcast_drain_come_after_the_block() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule_broadcast(2, 0, 3, 5);
        let first = sim.next().unwrap();
        assert_eq!(first.payload, EventPayload::Message { from: 0, to: 1, msg: 5 });
        // Scheduling at delay 0 lands at the same instant but AFTER the
        // remaining block messages, as its seq would be larger.
        sim.schedule(0, EventPayload::Timer { proc: 7, key: 1 });
        let second = sim.next().unwrap();
        assert_eq!(second.payload, EventPayload::Message { from: 0, to: 2, msg: 5 });
        let third = sim.next().unwrap();
        assert_eq!(third.payload, EventPayload::Timer { proc: 7, key: 1 });
    }

    #[test]
    fn message_payloads_round_trip() {
        let mut sim: Sim<String> = Sim::new();
        sim.schedule(1, EventPayload::Message { from: 2, to: 3, msg: "hello".into() });
        let e = sim.next().unwrap();
        assert_eq!(e.payload, EventPayload::Message { from: 2, to: 3, msg: "hello".into() });
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut sim: Sim<u32> = Sim::with_procs(4);
        // Steady-state churn: the arena must stop growing once the
        // high-water mark of in-flight events is reached.
        for round in 0..100u64 {
            for p in 0..4 {
                sim.schedule(1, EventPayload::Timer { proc: p, key: round });
            }
            for _ in 0..4 {
                sim.next().unwrap();
            }
        }
        assert!(sim.slots.len() <= 8, "arena grew to {} slots", sim.slots.len());
        assert_eq!(sim.pending(), 0);
    }

    /// Tiny deterministic LCG for the differential test (no external
    /// crates in this crate's dependency set).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn lane_engine_matches_single_heap_on_random_workloads() {
        // The bit-identity contract, exercised end to end: any random mix
        // of point-to-point messages, timers, broadcasts, and reactive
        // re-scheduling must produce the exact same event sequence,
        // delivered counts, and clock on both engines.
        for seed in 0..20u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let nprocs = 2 + (rng.next() % 15) as usize;
            let mut lanes: Sim<u64> = Sim::with_procs(nprocs);
            let mut heap: SingleHeapSim<u64> = SingleHeapSim::new();
            let schedule = |s: u64, lanes: &mut Sim<u64>, heap: &mut SingleHeapSim<u64>| {
                let delay = s % 17;
                match s % 5 {
                    0 => {
                        let from = (s / 7) as usize % nprocs;
                        lanes.schedule_broadcast(delay, from, nprocs, s);
                        heap.schedule_broadcast(delay, from, nprocs, s);
                    }
                    1 | 2 => {
                        let proc = (s / 3) as usize % nprocs;
                        lanes.schedule_timer(proc, delay, s);
                        heap.schedule_timer(proc, delay, s);
                    }
                    _ => {
                        let from = (s / 5) as usize % nprocs;
                        let to = (s / 11) as usize % nprocs;
                        let p = EventPayload::Message { from, to, msg: s };
                        lanes.schedule(delay, p.clone());
                        heap.schedule(delay, p);
                    }
                }
            };
            for _ in 0..300 {
                let s = rng.next();
                schedule(s, &mut lanes, &mut heap);
            }
            let mut drained = 0u64;
            loop {
                assert_eq!(lanes.pending(), heap.pending(), "seed {seed}");
                let (a, b) = (lanes.next(), heap.next());
                assert_eq!(a, b, "seed {seed} diverged after {drained} events");
                let Some(ev) = a else { break };
                drained += 1;
                // Reactive load: some deliveries schedule new work, so
                // the engines are also compared mid-flight (including
                // pushes landing during a broadcast unroll).
                let (EventPayload::Message { msg, .. } | EventPayload::Timer { key: msg, .. }) =
                    ev.payload;
                if msg % 13 == 0 && drained < 2000 {
                    let s = rng.next();
                    schedule(s, &mut lanes, &mut heap);
                }
            }
            assert_eq!(lanes.delivered(), heap.delivered(), "seed {seed}");
            assert_eq!(lanes.now(), heap.now(), "seed {seed}");
            assert_eq!(lanes.pending(), 0);
        }
    }

    #[test]
    fn single_heap_contract_holds_too() {
        // The reference engine honours the same time/FIFO contract.
        let mut sim: SingleHeapSim<u32> = SingleHeapSim::new();
        sim.schedule(10, EventPayload::Timer { proc: 0, key: 1 });
        sim.schedule(5, EventPayload::Timer { proc: 1, key: 2 });
        sim.schedule(5, EventPayload::Timer { proc: 2, key: 3 });
        let keys: Vec<u64> = std::iter::from_fn(|| sim.next())
            .map(|e| match e.payload {
                EventPayload::Timer { key, .. } => key,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![2, 3, 1]);
        assert_eq!(sim.delivered(), 3);
    }
}
