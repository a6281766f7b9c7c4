//! Real OS-level thread pinning via `sched_setaffinity(2)`.
//!
//! The paper pins threads "using the `setaffinity()` system call throughout
//! the MR invocation". On Linux this module performs the actual pin; on
//! other platforms it reports pinning as unsupported and the runtimes fall
//! back to computing (and reporting) the placement plan without enforcing
//! it — the performance model prices the plan either way.
//!
//! A thread that pins itself only for a while — the thread that submits to
//! a pinned session runs one of its mappers, then goes back to being the
//! caller's — saves its mask with [`current_thread_affinity`] first and puts
//! it back with [`set_current_thread_affinity`].

use std::io;

/// Whether [`pin_current_thread`] can actually pin on this platform.
pub fn pinning_supported() -> bool {
    cfg!(target_os = "linux")
}

/// Pins the calling thread to the given OS logical CPU.
///
/// # Errors
///
/// Returns the OS error when the syscall fails (e.g. the CPU id does not
/// exist on this machine) and an `Unsupported` error on non-Linux platforms.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    set_current_thread_affinity(&[cpu])
}

/// Restricts the calling thread to the given OS logical CPUs — typically a
/// mask saved earlier with [`current_thread_affinity`].
///
/// # Errors
///
/// Returns `InvalidInput` for an id at or past `CPU_SETSIZE`, the OS error
/// when the syscall fails (no listed CPU exists on this machine), and an
/// `Unsupported` error on non-Linux platforms.
#[cfg(target_os = "linux")]
pub fn set_current_thread_affinity(cpus: &[usize]) -> io::Result<()> {
    if let Some(&cpu) = cpus.iter().find(|&&cpu| cpu >= libc::CPU_SETSIZE as usize) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cpu id {cpu} exceeds CPU_SETSIZE"),
        ));
    }
    // SAFETY: CPU_SET/CPU_ZERO manipulate a plain bitset by value (every id
    // is in range, checked above); sched_setaffinity only reads the set.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut set);
        for &cpu in cpus {
            libc::CPU_SET(cpu, &mut set);
        }
        // tid 0 = calling thread.
        if libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Restricts the calling thread to the given OS logical CPUs.
///
/// # Errors
///
/// Always returns `Unsupported` on non-Linux platforms.
#[cfg(not(target_os = "linux"))]
pub fn set_current_thread_affinity(cpus: &[usize]) -> io::Result<()> {
    let _ = cpus;
    Err(unsupported())
}

/// The OS logical CPUs the calling thread may run on, ascending: the
/// `sched_getaffinity(2)` counterpart of [`pin_current_thread`].
///
/// # Errors
///
/// Returns the OS error when the syscall fails and an `Unsupported` error
/// on non-Linux platforms.
#[cfg(target_os = "linux")]
pub fn current_thread_affinity() -> io::Result<Vec<usize>> {
    // SAFETY: sched_getaffinity writes at most `size_of::<cpu_set_t>()`
    // bytes into the zeroed set it is handed; tid 0 = calling thread.
    let set = unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        if libc::sched_getaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &mut set) != 0 {
            return Err(io::Error::last_os_error());
        }
        set
    };
    Ok((0..libc::CPU_SETSIZE as usize).filter(|&cpu| libc::CPU_ISSET(cpu, &set)).collect())
}

/// The OS logical CPUs the calling thread may run on.
///
/// # Errors
///
/// Always returns `Unsupported` on non-Linux platforms.
#[cfg(not(target_os = "linux"))]
pub fn current_thread_affinity() -> io::Result<Vec<usize>> {
    Err(unsupported())
}

#[cfg(not(target_os = "linux"))]
fn unsupported() -> io::Error {
    io::Error::new(io::ErrorKind::Unsupported, "thread pinning is only implemented on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn can_pin_to_cpu_zero() {
        // CPU 0 exists on every machine.
        pin_current_thread(0).expect("pinning to cpu 0 must succeed on Linux");
        assert!(pinning_supported());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_to_absent_cpu_fails() {
        // CPU_SETSIZE is 1024; beyond it we reject locally.
        let err = pin_current_thread(1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_saved_mask_comes_back_after_a_pin() {
        let before = current_thread_affinity().unwrap();
        assert!(!before.is_empty() && before.windows(2).all(|w| w[0] < w[1]), "{before:?}");
        let cpu = *before.last().unwrap();
        pin_current_thread(cpu).unwrap();
        assert_eq!(current_thread_affinity().unwrap(), [cpu]);
        set_current_thread_affinity(&before).unwrap();
        assert_eq!(current_thread_affinity().unwrap(), before);
    }
}
