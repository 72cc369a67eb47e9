//! The two mailbox variants the datapath benches compare: the library's
//! [`Mailbox`] (per-channel SPSC lanes) and [`MutexMailbox`], the baseline
//! the lanes replaced — one lock around one queue.

use std::sync::{Arc, Mutex};

use rankmpi_fabric::{Mailbox, Notify, Packet};

/// A packet queue with the mailbox's quiet-push/drain shape: pushes do not
/// wake anyone (callers batch their notifications), and a drain moves
/// everything queued, in push order, into `out`.
pub trait PacketQueue: Sync {
    /// Whether every push and drain serializes on one lock — benches charge
    /// those operations to a contention model.
    const LOCKED: bool;

    /// An empty queue whose waiters watch `notify`.
    fn new(notify: Arc<Notify>) -> Self;

    /// Queue `p` without waking anyone.
    fn push_quiet(&self, p: Packet);

    /// Move every queued packet into `out`; returns how many.
    fn drain_into(&self, out: &mut Vec<Packet>) -> usize;
}

impl PacketQueue for Mailbox {
    const LOCKED: bool = false;

    fn new(notify: Arc<Notify>) -> Self {
        Mailbox::new(notify)
    }

    fn push_quiet(&self, p: Packet) {
        Mailbox::push_quiet(self, p, None);
    }

    fn drain_into(&self, out: &mut Vec<Packet>) -> usize {
        Mailbox::drain_into(self, out)
    }
}

/// The mutex baseline: every producer and the consumer take one lock
/// around one `Vec`. Callers wake waiters through their own [`Notify`].
#[derive(Debug, Default)]
pub struct MutexMailbox {
    q: Mutex<Vec<Packet>>,
}

impl PacketQueue for MutexMailbox {
    const LOCKED: bool = true;

    fn new(_notify: Arc<Notify>) -> Self {
        Self::default()
    }

    fn push_quiet(&self, p: Packet) {
        self.q.lock().expect("a pusher panicked").push(p);
    }

    fn drain_into(&self, out: &mut Vec<Packet>) -> usize {
        let mut q = self.q.lock().expect("a pusher panicked");
        let n = q.len();
        out.append(&mut q);
        n
    }
}
