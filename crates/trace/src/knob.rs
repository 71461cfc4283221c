//! The `CAE_*` knob grammar: the one place the program reads its
//! environment.
//!
//! Every runtime knob is an environment variable parsed by one of three
//! rules, each split into a pure string parser (testable without touching
//! the process environment) and a variable reader:
//!
//! * **off** ([`is_off`], [`off`]): the shared disable tokens `0`, `off`,
//!   `false`, `no` — case-insensitive, surrounding whitespace ignored. A
//!   knob read this way defaults to on.
//! * **opt-in** ([`is_on`], [`opt_in`]): `1`, `true`, `on`, `yes`, same
//!   normalization. A knob read this way (`CAE_TRACE`) defaults to off.
//! * **positive** ([`parse_positive`], [`positive`]): a trimmed integer
//!   ≥ 1; anything else (unset, malformed, zero) reads as `None`, so the
//!   caller's default applies.
//!
//! Knobs with their own value syntax (paths, backend names, `prob:seed`)
//! take the raw string from [`raw`]. Parse-once caching stays with each
//! knob's owning accessor (`enabled`, `pool`, `active_backend`, …); this
//! module only reads and parses.

/// The variable's value, or `None` when it is unset (or not Unicode).
pub fn raw(var: &str) -> Option<String> {
    std::env::var(var).ok()
}

/// Whether `value` is one of the shared disable tokens.
pub fn is_off(value: &str) -> bool {
    matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "0" | "off" | "false" | "no"
    )
}

/// Whether `value` is one of the opt-in enable tokens.
pub fn is_on(value: &str) -> bool {
    matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "1" | "true" | "on" | "yes"
    )
}

/// Parses a trimmed integer ≥ 1.
pub fn parse_positive(value: &str) -> Option<usize> {
    value.trim().parse().ok().filter(|&n| n >= 1)
}

/// Whether `var` is set to a disable token (unset reads as not off).
pub fn off(var: &str) -> bool {
    raw(var).is_some_and(|v| is_off(&v))
}

/// Whether `var` is set to an enable token (unset reads as not on).
pub fn opt_in(var: &str) -> bool {
    raw(var).is_some_and(|v| is_on(&v))
}

/// `var` as an integer ≥ 1, or `None` when unset or invalid.
pub fn positive(var: &str) -> Option<usize> {
    raw(var).and_then(|v| parse_positive(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_parses_tokens_and_counts() {
        for v in ["0", "off", "OFF", "Off", "false", "FALSE", "no", "No", " off ", "\t0\n"] {
            assert!(is_off(v), "{v:?} must disable");
            assert!(!is_on(v), "{v:?} must not enable");
        }
        for v in ["1", "on", "ON", "true", "True", "yes", " YES "] {
            assert!(is_on(v), "{v:?} must enable");
            assert!(!is_off(v), "{v:?} must not disable");
        }
        // Neither rule claims empty or unknown values: the knob's own
        // default applies.
        for v in ["", " ", "anything", "2", "offf", "n"] {
            assert!(!is_off(v) && !is_on(v), "{v:?} must be neither");
        }

        assert_eq!(parse_positive("1"), Some(1));
        assert_eq!(parse_positive("64\n"), Some(64));
        // `CAE_NUM_THREADS=" 2"`: the pool and the config report agree
        // because both read the trimmed value.
        assert_eq!(parse_positive(" 2"), Some(2));
        // `CAE_SERVE_MAX_BATCH=0` is not a batch of zero (which could never
        // dispatch) but invalid, so the default applies.
        assert_eq!(parse_positive("0"), None);
        // An unparsable value reads as unset, so the default applies.
        for bad in ["", "-1", "1.5", "x", "2 3", "0x10"] {
            assert_eq!(parse_positive(bad), None, "{bad:?}");
        }
    }
}
