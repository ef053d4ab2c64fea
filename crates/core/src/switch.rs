//! The process-global on/off switch behind [`crate::trace::enabled`],
//! [`crate::metrics::enabled`] and [`crate::sanitizer::enabled`].

use std::sync::atomic::{AtomicU8, Ordering};

const UNRESOLVED: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// One atomic state cell, so `enabled()` costs one relaxed load and a
/// predictable branch: it guards per-packet work on the datapath.
///
/// Enablement, highest priority first:
/// 1. a state set with [`Switch::force`] (tests, perfbench),
/// 2. the switch's environment variable, parsed on first use: `1`/`on`/
///    `true` mean on, `0`/`off`/`false` mean off,
/// 3. the switch's default, for anything else (unset included).
pub(crate) struct Switch {
    /// [`UNRESOLVED`] until first use or after `force(None)`, then
    /// [`OFF`] or [`ON`].
    state: AtomicU8,
    var: &'static str,
    default: bool,
}

impl Switch {
    /// A switch read from `var`, with `default` when the variable does not
    /// say on or off.
    pub(crate) const fn new(var: &'static str, default: bool) -> Self {
        Switch {
            state: AtomicU8::new(UNRESOLVED),
            var,
            default,
        }
    }

    /// Whether the switch is on.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            OFF => false,
            ON => true,
            _ => self.resolve(),
        }
    }

    #[cold]
    fn resolve(&self) -> bool {
        let on = match std::env::var(self.var).as_deref().map(str::trim) {
            Ok("1" | "on" | "true") => true,
            Ok("0" | "off" | "false") => false,
            _ => self.default,
        };
        let state = if on { ON } else { OFF };
        // A concurrent `force` wins over the environment.
        match self
            .state
            .compare_exchange(UNRESOLVED, state, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => on,
            Err(forced) => forced == ON,
        }
    }

    /// Force the switch on or off (`None` goes back to the environment
    /// and the default on the next read).
    pub(crate) fn force(&self, on: Option<bool>) {
        let state = match on {
            None => UNRESOLVED,
            Some(false) => OFF,
            Some(true) => ON,
        };
        self.state.store(state, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_wins_and_none_goes_back_to_the_default() {
        // A variable no environment sets, so the default decides.
        let s = Switch::new("VISIONSIM_SWITCH_TEST_UNSET", true);
        assert!(s.enabled());
        s.force(Some(false));
        assert!(!s.enabled());
        s.force(Some(true));
        assert!(s.enabled());
        s.force(None);
        assert!(s.enabled());
        let off = Switch::new("VISIONSIM_SWITCH_TEST_UNSET", false);
        assert!(!off.enabled());
    }
}
