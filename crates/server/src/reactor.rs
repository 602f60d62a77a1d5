//! Minimal `epoll`, `eventfd`, `poll` and `signal` bindings for the
//! connection reactor, its workers and the server binaries.
//!
//! The workspace builds with an empty registry, so the kernel interface
//! is declared directly with a handful of `extern "C"` prototypes
//! instead of pulling in `libc`/`mio`. Only the slice the front end
//! needs is bound: an epoll instance whose one-shot registrations any
//! thread may re-arm, an `eventfd` that is either a plain signal or a
//! semaphore, `poll(2)` so a thread can wait on a socket and an eventfd
//! at once, and the SIGINT/SIGTERM wait `dram-serve` and `dram-route`
//! drain on.
//!
//! Safety lives entirely in this module: the wrappers own their file
//! descriptors (closed on drop), `epoll_wait` and `poll` write only into
//! the buffers we size for them, and tokens are plain data — the event
//! loop in `server.rs` never touches a raw pointer.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Readable event bit, re-exported for the event loop.
pub const EPOLLIN: u32 = 0x001;
/// Peer closed its write half (or the whole connection).
pub const EPOLLRDHUP: u32 = 0x2000;
/// One-shot delivery: after one event the registration is disabled
/// until [`Epoll::rearm`] enables it again.
pub const EPOLLONESHOT: u32 = 1 << 30;

/// `poll` readable bit.
pub const POLLIN: i16 = 0x001;
/// `poll` writable bit.
pub const POLLOUT: i16 = 0x004;
/// `poll` peer-hangup bit (the `EPOLLRDHUP` of `poll`).
pub const POLLRDHUP: i16 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
/// `EPOLL_CLOEXEC` == `O_CLOEXEC`.
const EPOLL_CLOEXEC: i32 = 0o2_000_000;
/// `EFD_CLOEXEC` | `EFD_NONBLOCK` == `O_CLOEXEC` | `O_NONBLOCK`.
const EFD_FLAGS: i32 = 0o2_000_000 | 0o4_000;
/// `EFD_SEMAPHORE`: each read takes one count instead of all of them.
const EFD_SEMAPHORE: i32 = 1;

/// `struct epoll_event`; packed on x86-64 only, matching the kernel ABI
/// (`include/uapi/linux/eventpoll.h`).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// An empty slot for the `epoll_wait` output buffer.
    #[must_use]
    pub fn zeroed() -> Self {
        Self { events: 0, data: 0 }
    }

    /// The `(event bits, registration token)` pair, copied out of the
    /// (possibly unaligned) kernel-filled struct.
    #[must_use]
    pub fn parts(self) -> (u32, u64) {
        // `self` is a by-value copy, so reading packed fields is safe.
        let Self { events, data } = self;
        (events, data)
    }
}

/// `struct pollfd`: one descriptor and the events to wait for. A
/// negative `fd` is skipped by the kernel and never reports ready.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Waits on `fd` for `events`; errors and hangups are always
    /// reported too.
    #[must_use]
    pub fn new(fd: i32, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the last [`poll`] reported anything for this descriptor:
    /// a requested event, an error or a hangup.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// A kernel timeout argument in whole milliseconds, rounded up so a
/// sub-millisecond wait does not become a busy poll; `None` waits
/// forever.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    timeout.map_or(-1, |t| {
        i32::try_from(t.as_micros().div_ceil(1000)).unwrap_or(i32::MAX)
    })
}

/// An owned epoll instance. Waiting belongs to one thread; registering
/// and re-arming are safe from any.
#[derive(Debug)]
pub struct Epoll {
    fd: i32,
}

impl Epoll {
    /// Creates the epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The `epoll_create1` errno, as an [`io::Error`].
    pub fn new() -> io::Result<Self> {
        // SAFETY: no pointers; returns an fd or -1.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    fn ctl(&self, op: i32, fd: i32, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &raw mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` for `events`, tagging notifications with `token`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno — `EMFILE`/`ENOMEM` under fd pressure; the
    /// caller closes the connection rather than losing track of it.
    pub fn add(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Re-enables a registered `fd` whose [`EPOLLONESHOT`] event fired:
    /// one `epoll_ctl(MOD)`. If the fd is already readable the event is
    /// delivered at once.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno (`ENOENT` if `fd` was never added).
    pub fn rearm(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Deregisters `fd`. Best-effort: the fd may already be gone, and
    /// closing an fd removes it from every epoll set anyway.
    pub fn del(&self, fd: i32) {
        // The event argument is ignored for DEL on modern kernels but
        // must be non-null for pre-2.6.9 compatibility.
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits up to `timeout` for events, filling `events` from the
    /// front; returns how many slots were filled. `EINTR` (a signal
    /// landed mid-wait) is reported as zero events, not an error — the
    /// caller's loop re-checks its own state and waits again.
    ///
    /// # Errors
    ///
    /// Any `epoll_wait` errno other than `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Duration) -> io::Result<usize> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
        let cap = events.len().min(i32::MAX as usize) as i32;
        // SAFETY: the out-buffer is sized by `cap`; the kernel writes at
        // most that many entries.
        let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), cap, timeout_ms(Some(timeout))) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        #[allow(clippy::cast_sign_loss)]
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe { close(self.fd) };
    }
}

/// Waits up to `timeout` (forever for `None`) until one of `fds` is
/// ready; returns how many are. `EINTR` is reported as zero ready
/// descriptors, like a timeout: callers re-check their state and wait
/// again.
///
/// # Errors
///
/// Any `poll` errno other than `EINTR`.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    // SAFETY: the kernel reads and writes exactly `fds.len()` entries
    // (`nfds_t` is `unsigned long`, the width of `usize` on Linux).
    let n = unsafe { sys_poll(fds.as_mut_ptr(), fds.len(), timeout_ms(timeout)) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    #[allow(clippy::cast_sign_loss)]
    Ok(n as usize)
}

/// Waits up to `timeout` for one descriptor to report `events` (or an
/// error or hangup); `false` when the time ran out first.
///
/// # Errors
///
/// As [`poll`].
pub fn wait_ready(fd: i32, events: i16, timeout: Duration) -> io::Result<bool> {
    let mut fds = [PollFd::new(fd, events)];
    poll(&mut fds, Some(timeout))?;
    Ok(fds[0].ready())
}

/// A nonblocking `eventfd` (close-on-exec). As a signal it is written
/// once and never read, so it stays readable for every waiter; as a
/// semaphore each [`EventFd::try_take`] consumes one posted count.
#[derive(Debug)]
pub struct EventFd {
    fd: i32,
}

impl EventFd {
    fn with_flags(flags: i32) -> io::Result<Self> {
        // SAFETY: no pointers; returns an fd or -1.
        let fd = unsafe { eventfd(0, flags) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    /// A counter that turns readable at its first [`EventFd::post`].
    ///
    /// # Errors
    ///
    /// The `eventfd` errno, as an [`io::Error`].
    pub fn new() -> io::Result<Self> {
        Self::with_flags(EFD_FLAGS)
    }

    /// A semaphore: readable while its count is positive, and each
    /// [`EventFd::try_take`] takes one count.
    ///
    /// # Errors
    ///
    /// The `eventfd` errno, as an [`io::Error`].
    pub fn semaphore() -> io::Result<Self> {
        Self::with_flags(EFD_FLAGS | EFD_SEMAPHORE)
    }

    /// The fd to register with [`Epoll::add`] or wait on with [`poll`].
    #[must_use]
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Adds `n` to the count, waking every thread waiting for it to turn
    /// readable. Best-effort: the counter saturating (`EAGAIN`) already
    /// leaves it readable, which is all a wake needs.
    pub fn post(&self, n: u64) {
        // SAFETY: writes exactly the 8 bytes an eventfd requires.
        let _ = unsafe { write(self.fd, (&raw const n).cast::<u8>(), 8) };
    }

    /// Takes one count without blocking; `false` when the count is zero
    /// (another waiter took it first).
    pub fn try_take(&self) -> bool {
        let mut counter = [0u8; 8];
        // SAFETY: reads into an 8-byte buffer; nonblocking, so this
        // returns -1/EAGAIN when the count is zero.
        (unsafe { read(self.fd, counter.as_mut_ptr(), 8) }) == 8
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe { close(self.fd) };
    }
}

/// Set by [`on_signal`]; read by [`wait_for_shutdown_signal`].
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN_REQUESTED.store(true, Ordering::Relaxed);
}

/// Blocks until the process receives SIGINT or SIGTERM, looking every
/// 50 ms at the flag the handler sets: a server binary's cue to drain.
pub fn wait_for_shutdown_signal() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: both are valid signal numbers, and the handler only
    // stores to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    while !SHUTDOWN_REQUESTED.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn a_signal_stays_readable_for_every_waiter() {
        let epoll = Epoll::new().expect("epoll_create1");
        let stop = EventFd::new().expect("eventfd");
        epoll.add(stop.fd(), 7, EPOLLIN).expect("register stop");

        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing pending: the wait times out empty.
        let n = epoll
            .wait(&mut events, Duration::from_millis(10))
            .expect("wait");
        assert_eq!(n, 0);
        assert!(!wait_ready(stop.fd(), POLLIN, Duration::from_millis(10)).expect("poll"));

        // One post surfaces in epoll with the registration token, and
        // keeps surfacing in `poll` because nothing reads it.
        stop.post(1);
        let n = epoll
            .wait(&mut events, Duration::from_millis(1000))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].parts().1, 7);
        for _ in 0..3 {
            assert!(wait_ready(stop.fd(), POLLIN, Duration::from_millis(10)).expect("poll"));
        }
    }

    #[test]
    fn a_semaphore_hands_out_one_count_per_post() {
        let sem = EventFd::semaphore().expect("eventfd");
        assert!(!sem.try_take(), "a fresh semaphore is empty");
        sem.post(2);
        assert!(wait_ready(sem.fd(), POLLIN, Duration::from_millis(10)).expect("poll"));
        assert!(sem.try_take());
        assert!(sem.try_take());
        assert!(!sem.try_take(), "two posts, two takes");
        assert!(!wait_ready(sem.fd(), POLLIN, Duration::from_millis(10)).expect("poll"));
    }

    #[test]
    fn a_one_shot_registration_fires_once_until_rearmed() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let epoll = Epoll::new().expect("epoll_create1");
        let bits = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
        epoll.add(server.as_raw_fd(), 42, bits).expect("register");
        client.write_all(b"x").expect("write");

        let mut events = [EpollEvent::zeroed(); 4];
        let n = epoll
            .wait(&mut events, Duration::from_secs(1))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].parts().1, 42);
        // Still readable, but the registration is spent.
        let n = epoll
            .wait(&mut events, Duration::from_millis(20))
            .expect("wait");
        assert_eq!(n, 0, "a one-shot registration fired twice");
        // Re-arming with the byte still unread delivers it at once.
        epoll.rearm(server.as_raw_fd(), 43, bits).expect("rearm");
        let n = epoll
            .wait(&mut events, Duration::from_secs(1))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].parts().1, 43);
    }
}
