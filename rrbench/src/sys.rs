//! The three operating-system calls the standard library does not offer:
//! waiting on several sockets with a nanosecond timeout (so one thread
//! can drive two connections on an open-loop schedule without waking
//! late), the process CPU clock (for `core.coverage`), and SIGTERM (so a
//! spawned `rr-serve` drains gracefully).
//!
//! Linux, 64-bit only: the struct layouts below are those of that ABI.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("rrbench supports 64-bit Linux only");

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Waits until one of `fds` is readable (or hung up) or `timeout`
/// passes; returns which are ready.
pub fn wait_readable(fds: &[RawFd], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut polls: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `polls` is a live, initialised array of `polls.len()`
    // `struct pollfd`s (same layout as `PollFd` on 64-bit Linux) that
    // ppoll may write `revents` into; `ts` is a valid `struct timespec`
    // that outlives the call; a null sigmask means "leave the mask".
    let n = unsafe {
        ppoll(
            polls.as_mut_ptr(),
            polls.len() as u64,
            &ts,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(e);
    }
    Ok(polls.iter().map(|p| p.revents != 0).collect())
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and CLOCK_PROCESS_CPUTIME_ID is a clock every Linux has.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Sends SIGTERM to the child process `pid`.
pub fn terminate(pid: u32) -> io::Result<()> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    // SAFETY: kill(2) takes plain integers and touches no memory of
    // ours; `pid` is a child this process spawned and has not reaped.
    if unsafe { kill(pid, SIGTERM) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn wait_readable_times_out_then_sees_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let t = Instant::now();
        let ready = wait_readable(&[client.as_raw_fd()], Duration::from_millis(20)).unwrap();
        assert_eq!(ready, vec![false]);
        assert!(t.elapsed() >= Duration::from_millis(19));
        server.write_all(b"x\n").unwrap();
        let ready = wait_readable(&[client.as_raw_fd()], Duration::from_secs(5)).unwrap();
        assert_eq!(ready, vec![true]);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_time();
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_time() - a >= Duration::from_millis(10));
    }
}
