//! Reusable byte-buffer pool for the message hot paths.
//!
//! Every in-flight onion is one owned `Vec<u8>` that travels hop to hop
//! through the in-place peel/wrap APIs ([`crate::onion`],
//! [`crate::relay`]). The pool closes the loop: buffers whose message
//! terminated (delivered, acked, dropped) donate their capacity to the
//! next message launched, so steady-state traffic runs without heap
//! allocation regardless of how many messages are sent. The event-driven
//! [`crate::driver`], the [`Initiator`](crate::endpoint::Initiator) (its
//! payload onions) and the transports (their frame buffers) each keep one.

/// A bounded free-list of `Vec<u8>` buffers.
///
/// `get` hands out a cleared buffer (reusing a pooled one when available);
/// `put` returns a buffer's capacity. The idle list is capped at
/// [`BufferPool::MAX_IDLE`] so a burst of concurrent messages cannot pin
/// unbounded memory after it drains.
///
/// ```
/// use anon_core::pool::BufferPool;
///
/// let mut pool = BufferPool::new();
/// let mut buf = pool.get_copy(b"payload");
/// buf.reserve(1024); // grows while in flight
/// let cap = buf.capacity();
/// pool.put(buf);
/// // The next message reuses that capacity instead of allocating.
/// assert!(pool.get().capacity() >= cap);
/// ```
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
}

impl BufferPool {
    /// Maximum number of idle buffers retained; `put` beyond this drops
    /// the buffer instead.
    pub const MAX_IDLE: usize = 64;

    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take an empty buffer, reusing pooled capacity when available.
    pub fn get(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    /// Take a buffer pre-filled with a copy of `bytes`.
    pub fn get_copy(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.get();
        buf.extend_from_slice(bytes);
        buf
    }

    /// Return a finished buffer's capacity to the pool.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < Self::MAX_IDLE && buf.capacity() > 0 {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Number of idle buffers currently held.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_capacity() {
        let mut pool = BufferPool::new();
        let mut a = pool.get();
        a.extend_from_slice(&[0u8; 512]);
        let cap = a.capacity();
        let ptr = a.as_ptr();
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.get();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
        assert_eq!(b.as_ptr(), ptr, "same backing allocation");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn get_copy_fills_from_slice() {
        let mut pool = BufferPool::new();
        let buf = pool.get_copy(b"abc");
        assert_eq!(buf, b"abc");
    }

    #[test]
    fn idle_list_is_bounded_and_skips_capacityless_buffers() {
        let mut pool = BufferPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.idle(), 0, "no point pooling a zero-cap buffer");
        for _ in 0..(BufferPool::MAX_IDLE + 10) {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.idle(), BufferPool::MAX_IDLE);
    }
}
