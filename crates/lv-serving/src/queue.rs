//! Bounded admission queue with backpressure and deadline shedding.
//!
//! Serving frameworks put a finite buffer in front of the replica pool:
//! when it fills, new work is rejected immediately (backpressure to the
//! client) instead of growing an unbounded backlog, and queued work whose
//! deadline has already passed is shed before it wastes a replica. Both
//! outcomes are reported through [`crate::metrics::DropStats`] rather than
//! silently vanishing.

use std::cell::Cell;
use std::collections::VecDeque;

/// A request waiting for service.
#[derive(Debug, Clone, Copy)]
pub struct QueuedRequest {
    /// Arrival sequence number, used to correlate lifecycle trace events.
    pub id: u64,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Index into the engine's request-class table.
    pub class: usize,
    /// Service cost of this request alone (seconds).
    pub unit_cost_s: f64,
}

/// FIFO admission queue with a hard capacity and an optional relative
/// deadline. `try_admit` refuses work beyond `capacity`; `shed_expired`
/// drops queued requests whose deadline passed before service could start.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    items: VecDeque<QueuedRequest>,
    capacity: usize,
    deadline_s: Option<f64>,
    /// [`AdmissionQueue::total_cost_s`] since the last change, `None`
    /// until first read. Re-summed front to back, never kept by running
    /// add and subtract: that would drift in the last bits and flip
    /// routing ties. Summing on read, not on change, keeps a long queue
    /// that nobody asks about (the single-node engine's) from paying a
    /// full sum on every admit and pop.
    total_cost_s: Cell<Option<f64>>,
}

impl AdmissionQueue {
    /// New queue holding at most `capacity` requests; requests older than
    /// `deadline_s` (if given) are shed at dispatch time.
    pub fn new(capacity: usize, deadline_s: Option<f64>) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        if let Some(d) = deadline_s {
            assert!(d > 0.0, "deadline must be positive");
        }
        Self { items: VecDeque::new(), capacity, deadline_s, total_cost_s: Cell::new(None) }
    }

    /// Forget the cached total after a change to the queued items.
    fn changed(&mut self) {
        *self.total_cost_s.get_mut() = None;
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Arrival time of the oldest queued request.
    pub fn head_arrival(&self) -> Option<f64> {
        self.items.front().map(|r| r.arrival_s)
    }

    /// The oldest queued request.
    pub fn head(&self) -> Option<&QueuedRequest> {
        self.items.front()
    }

    /// Arrival time of the request at position `idx` (0 = head).
    pub fn arrival_at(&self, idx: usize) -> Option<f64> {
        self.items.get(idx).map(|r| r.arrival_s)
    }

    /// Total service cost (seconds) of everything queued — the backlog a
    /// new arrival waits behind, used by routing/admission estimates.
    pub fn total_cost_s(&self) -> f64 {
        if let Some(total) = self.total_cost_s.get() {
            return total;
        }
        let total = self.items.iter().map(|r| r.unit_cost_s).sum();
        self.total_cost_s.set(Some(total));
        total
    }

    /// Admit `req` if there is room; `false` means the caller must count a
    /// [`crate::metrics::DropReason::QueueFull`] drop.
    pub fn try_admit(&mut self, req: QueuedRequest) -> bool {
        if self.items.len() >= self.capacity {
            return false;
        }
        self.items.push_back(req);
        self.changed();
        true
    }

    /// Drop-and-return every leading request whose deadline expires before
    /// `now` (service starting at `now` would be too late). FIFO order
    /// means expiry times are non-decreasing from the head, so only a
    /// prefix can be expired.
    pub fn shed_expired(&mut self, now_s: f64) -> Vec<QueuedRequest> {
        let Some(deadline) = self.deadline_s else {
            return Vec::new();
        };
        let mut shed = Vec::new();
        while let Some(head) = self.items.front() {
            if head.arrival_s + deadline < now_s {
                shed.push(self.items.pop_front().expect("head exists"));
            } else {
                break;
            }
        }
        if !shed.is_empty() {
            self.changed();
        }
        shed
    }

    /// Pop up to `max` requests from the head to form a batch.
    pub fn pop_batch(&mut self, max: usize) -> Vec<QueuedRequest> {
        let n = max.min(self.items.len());
        let batch = self.items.drain(..n).collect();
        self.changed();
        batch
    }

    /// Remove the queued request with this id, if present (hedged
    /// duplicates are cancelled when another copy wins; not a drop).
    pub fn cancel(&mut self, id: u64) -> Option<QueuedRequest> {
        let idx = self.items.iter().position(|r| r.id == id)?;
        let req = self.items.remove(idx);
        self.changed();
        req
    }

    /// Empty the queue, returning everything that was waiting (node
    /// crash: the caller accounts the loss).
    pub fn drain_all(&mut self) -> Vec<QueuedRequest> {
        let all = self.items.drain(..).collect();
        self.changed();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(arrival_s: f64) -> QueuedRequest {
        QueuedRequest { id: 0, arrival_s, class: 0, unit_cost_s: 0.01 }
    }

    #[test]
    fn capacity_is_enforced() {
        let mut q = AdmissionQueue::new(2, None);
        assert!(q.try_admit(req(0.0)));
        assert!(q.try_admit(req(0.1)));
        assert!(!q.try_admit(req(0.2)), "third admit must be refused");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn shedding_drops_only_expired_prefix() {
        let mut q = AdmissionQueue::new(10, Some(1.0));
        for t in [0.0, 0.5, 2.0] {
            assert!(q.try_admit(req(t)));
        }
        // At now=1.8: 0.0 expired (0.0+1.0 < 1.8), 0.5 not (1.5 < 1.8 -> also expired!), 2.0 fresh.
        let shed = q.shed_expired(1.8);
        assert_eq!(shed.len(), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.head_arrival(), Some(2.0));
    }

    #[test]
    fn no_deadline_means_no_shedding() {
        let mut q = AdmissionQueue::new(10, None);
        q.try_admit(req(0.0));
        assert!(q.shed_expired(1e9).is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn batches_pop_fifo() {
        let mut q = AdmissionQueue::new(10, None);
        for t in 0..5 {
            q.try_admit(req(t as f64));
        }
        let b = q.pop_batch(3);
        assert_eq!(b.len(), 3);
        assert_eq!(b[0].arrival_s, 0.0);
        assert_eq!(b[2].arrival_s, 2.0);
        assert_eq!(q.arrival_at(0), Some(3.0));
        assert_eq!(q.pop_batch(99).len(), 2);
        assert!(q.is_empty());
    }
}
