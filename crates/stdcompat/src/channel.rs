//! Bounded and unbounded MPSC channels over [`std::sync::mpsc`].
//!
//! [`bounded`] maps onto [`std::sync::mpsc::sync_channel`] and
//! [`unbounded`] onto [`std::sync::mpsc::channel`], unifying both
//! sender flavours behind one cloneable [`Sender`]. Error types are the
//! std ones re-exported, so call sites match on
//! [`TryRecvError::Empty`]/[`Disconnected`](TryRecvError::Disconnected)
//! exactly as they would with std channels.

use std::sync::mpsc;
pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};
use std::time::Duration;

/// Creates a channel with a bounded buffer; sends block while full.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::sync_channel(capacity);
    (Sender(Flavor::Bounded(tx)), Receiver(rx))
}

/// Creates a channel with an unbounded buffer; sends never block.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    (Sender(Flavor::Unbounded(tx)), Receiver(rx))
}

#[derive(Debug)]
enum Flavor<T> {
    Bounded(mpsc::SyncSender<T>),
    Unbounded(mpsc::Sender<T>),
}

/// The sending half of a channel; cloneable across producer threads.
#[derive(Debug)]
pub struct Sender<T>(Flavor<T>);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender(match &self.0 {
            Flavor::Bounded(tx) => Flavor::Bounded(tx.clone()),
            Flavor::Unbounded(tx) => Flavor::Unbounded(tx.clone()),
        })
    }
}

impl<T> Sender<T> {
    /// Sends a value, blocking while a bounded buffer is full.
    ///
    /// # Errors
    ///
    /// Returns the value back if the receiver has disconnected.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match &self.0 {
            Flavor::Bounded(tx) => tx.send(value),
            Flavor::Unbounded(tx) => tx.send(value),
        }
    }
}

/// The receiving half of a channel.
#[derive(Debug)]
pub struct Receiver<T>(mpsc::Receiver<T>);

impl<T> Receiver<T> {
    /// Blocks until a value arrives.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once all senders have disconnected and the
    /// buffer is drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.0.recv()
    }

    /// Returns a buffered value without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when no value is buffered,
    /// [`TryRecvError::Disconnected`] after all senders hung up.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.0.try_recv()
    }

    /// Blocks until a value arrives or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] on expiry,
    /// [`RecvTimeoutError::Disconnected`] after all senders hung up.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.0.recv_timeout(timeout)
    }

    /// An iterator draining values until all senders disconnect.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_delivers_in_order_across_clones() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop((tx, tx2));
        assert_eq!(rx.iter().collect::<Vec<i32>>(), vec![1, 2]);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn bounded_applies_backpressure() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        // Second send would block; prove it completes once a consumer
        // drains the buffer from another thread.
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || tx.send(2).unwrap());
            assert_eq!(rx.recv(), Ok(1));
            handle.join().unwrap();
            assert_eq!(rx.recv(), Ok(2));
        });
    }

    #[test]
    fn try_recv_and_timeout_distinguish_empty_from_closed() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_to_disconnected_receiver_returns_value() {
        let (tx, rx) = bounded(4);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }
}
