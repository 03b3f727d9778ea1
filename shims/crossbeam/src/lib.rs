//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the piece this workspace uses: an unbounded MPMC channel
//! with timeout-aware receive (`crossbeam::channel`). Built on
//! `std::sync` primitives (`Mutex` + `Condvar`), with disconnection
//! semantics matching the real crate: sends fail once every receiver is
//! gone, receives report `Disconnected` once every sender is gone and
//! the queue is drained.

#![forbid(unsafe_code)]

/// Unbounded MPMC channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        ready: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// Sending half; clonable across threads.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; clonable across threads (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// The channel is closed: every receiver has been dropped. Returns the
    /// unsent value, as in crossbeam.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> core::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Why a blocking receive returned without a value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// All senders are gone and the queue is empty.
        Disconnected,
    }

    /// Why a blocking receive with no timeout failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why a non-blocking receive returned without a value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The queue is currently empty.
        Empty,
        /// All senders are gone and the queue is empty.
        Disconnected,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender { shared: Arc::clone(&shared) },
            Receiver { shared },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().senders += 1;
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.queue.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                // Wake receivers so they can observe disconnection.
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().receivers += 1;
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.queue.lock().unwrap().receivers -= 1;
        }
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing if every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.queue.lock().unwrap();
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.items.push_back(value);
            drop(state);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.queue.lock().unwrap();
            match state.items.pop_front() {
                Some(v) => Ok(v),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.queue.lock().unwrap();
            loop {
                if let Some(v) = state.items.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.ready.wait(state).unwrap();
            }
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.shared.queue.lock().unwrap();
            loop {
                if let Some(v) = state.items.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                let Some(remaining) = deadline.checked_duration_since(now) else {
                    return Err(RecvTimeoutError::Timeout);
                };
                let (guard, wait) = self.shared.ready.wait_timeout(state, remaining).unwrap();
                state = guard;
                if wait.timed_out() && state.items.is_empty() && state.senders > 0 {
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn roundtrip_and_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(2));
        }

        #[test]
        fn timeout_when_empty() {
            let (_tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn disconnected_when_senders_gone() {
            let (tx, rx) = unbounded::<u8>();
            tx.send(9).unwrap();
            drop(tx);
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn send_fails_after_receivers_drop() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert_eq!(tx.send(5), Err(SendError(5)));
        }

        #[test]
        fn mpmc_across_threads() {
            let (tx, rx) = unbounded::<u64>();
            let total: u64 = std::thread::scope(|s| {
                let consumers: Vec<_> = (0..3)
                    .map(|_| {
                        let rx = rx.clone();
                        s.spawn(move || {
                            let mut sum = 0u64;
                            while let Ok(v) = rx.recv() {
                                sum += v;
                            }
                            sum
                        })
                    })
                    .collect();
                drop(rx);
                for i in 1..=100 {
                    tx.send(i).unwrap();
                }
                drop(tx);
                consumers.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(total, 5050);
        }
    }
}
