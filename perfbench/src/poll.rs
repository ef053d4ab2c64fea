//! Readiness wait on a few sockets, via `ppoll(2)`.
//!
//! The live load generator's second thread waits on the control
//! connection and an in-flight scrape at once, with a timeout that ends
//! at the next scrape's due time. Socket read timeouts are rounded to
//! scheduler ticks (milliseconds); `ppoll` takes a nanosecond timeout.

use std::os::fd::RawFd;
use std::time::Duration;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
}

/// Wait until one of `fds` is readable (or hung up) or `timeout` passes;
/// returns which are ready, in order.
pub fn readable(fds: &[RawFd], timeout: Duration) -> Vec<bool> {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `set` is a live, contiguous array of `set.len()` pollfd
    // structs laid out as the kernel expects (repr(C) i32, i16, i16);
    // `ts` is a live timespec (two 64-bit fields on 64-bit Linux); a null
    // signal mask leaves the thread's mask unchanged. The kernel writes
    // only the `revents` fields, within the array, before returning.
    let n = unsafe {
        ppoll(
            set.as_mut_ptr(),
            set.len() as std::ffi::c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if n <= 0 {
        return vec![false; fds.len()];
    }
    set.iter()
        .map(|p| p.revents & (POLLIN | POLLERR | POLLHUP) != 0)
        .collect()
}
