//! Thread-local work-scale override for the simulator.
//!
//! The work scale multiplies every metered work item, message and
//! allocation, extrapolating a structurally identical graph `scale`×
//! larger (see DESIGN.md §2). It is communicated to [`Sim::new`] by a
//! **per-thread** override: each sweep worker sets its own scale without
//! observing its neighbours, and a thread with no override runs at 1.0
//! whatever the process environment holds.
//!
//! [`Sim::new`]: crate::Sim::new

use std::cell::Cell;

thread_local! {
    static OVERRIDE: Cell<Option<f64>> = const { Cell::new(None) };
}

/// The work scale in effect on this thread: the innermost
/// [`with_work_scale`] override if any, else 1.0.
pub fn current_work_scale() -> f64 {
    OVERRIDE.with(Cell::get).unwrap_or(1.0)
}

/// Restores the previous thread-local override when dropped — including
/// during unwinding, so a panicking sweep cell cannot leak its scale into
/// the next cell run on the same worker thread.
pub struct WorkScaleGuard {
    prev: Option<f64>,
}

impl Drop for WorkScaleGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Installs a thread-local work-scale override (clamped to ≥ 1.0) and
/// returns the guard that undoes it.
pub fn set_work_scale(scale: f64) -> WorkScaleGuard {
    let prev = OVERRIDE.with(|c| c.replace(Some(scale.max(1.0))));
    WorkScaleGuard { prev }
}

/// Runs `f` under a work-scale override of `scale`, restoring the
/// previous value afterwards (even if `f` panics). Overrides nest.
pub fn with_work_scale<T>(scale: f64, f: impl FnOnce() -> T) -> T {
    let _guard = set_work_scale(scale);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_nests_and_restores() {
        assert_eq!(current_work_scale(), 1.0);
        let outer = with_work_scale(4.0, || {
            let inner = with_work_scale(16.0, current_work_scale);
            (current_work_scale(), inner)
        });
        assert_eq!(outer, (4.0, 16.0));
        assert_eq!(current_work_scale(), 1.0);
    }

    #[test]
    fn scale_below_one_is_clamped() {
        assert_eq!(with_work_scale(0.25, current_work_scale), 1.0);
    }

    #[test]
    fn panic_does_not_leak_override() {
        let r = std::panic::catch_unwind(|| with_work_scale(9.0, || panic!("cell failed")));
        assert!(r.is_err());
        assert_eq!(current_work_scale(), 1.0);
    }

    #[test]
    fn threads_do_not_observe_each_other() {
        with_work_scale(32.0, || {
            let other = std::thread::spawn(current_work_scale).join().unwrap();
            assert_eq!(other, 1.0, "override must stay thread-local");
            assert_eq!(current_work_scale(), 32.0);
        });
    }
}
