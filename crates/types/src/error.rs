//! Workspace-wide error type.

use std::fmt;

/// Convenience alias used across all `cost-intel` crates.
pub type Result<T> = std::result::Result<T, CiError>;

/// Errors produced anywhere in the cost-intelligent warehouse.
///
/// Variants are grouped by the architectural component that raises them
/// (parser, catalog, planner, executor, cloud substrate, constraint checking),
/// which keeps error reporting explainable — a stated design goal of the
/// paper's cost estimator (§3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CiError {
    /// SQL text could not be tokenized or parsed.
    Parse(String),
    /// Name resolution / catalog lookup failure (unknown table, column, ...).
    Catalog(String),
    /// Storage-format failure (malformed encoded page, codec mismatch, ...).
    Storage(String),
    /// Logical or physical planning failure.
    Plan(String),
    /// Execution-time failure (type mismatch in a batch, missing input, ...).
    Exec(String),
    /// Cloud substrate failure (no capacity, invalid resize, ...).
    Cloud(String),
    /// Unrecoverable injected or observed fault: retries exhausted on a
    /// permanently failing fetch, a worker lost beyond recovery. Distinct
    /// from [`CiError::Cloud`] so callers can tell "the substrate rejected
    /// the request" from "the request died of failures despite recovery".
    Fault(String),
    /// A user constraint (latency SLA or budget) cannot be satisfied by any
    /// plan the optimizer explored.
    Infeasible(String),
    /// Invalid configuration (bad hardware profile, non-positive scale, ...).
    Config(String),
    /// Tuning / what-if service failure.
    Tuning(String),
}

impl fmt::Display for CiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, msg) = match self {
            CiError::Parse(m) => ("parse error", m),
            CiError::Catalog(m) => ("catalog error", m),
            CiError::Storage(m) => ("storage error", m),
            CiError::Plan(m) => ("plan error", m),
            CiError::Exec(m) => ("execution error", m),
            CiError::Cloud(m) => ("cloud error", m),
            CiError::Fault(m) => ("unrecoverable fault", m),
            CiError::Infeasible(m) => ("infeasible constraint", m),
            CiError::Config(m) => ("config error", m),
            CiError::Tuning(m) => ("tuning error", m),
        };
        write!(f, "{kind}: {msg}")
    }
}

impl std::error::Error for CiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_message() {
        let e = CiError::Parse("unexpected token".into());
        assert_eq!(e.to_string(), "parse error: unexpected token");
    }

    #[test]
    fn kinds_are_distinct() {
        let all = [
            CiError::Parse(String::new()),
            CiError::Catalog(String::new()),
            CiError::Storage(String::new()),
            CiError::Plan(String::new()),
            CiError::Exec(String::new()),
            CiError::Cloud(String::new()),
            CiError::Fault(String::new()),
            CiError::Infeasible(String::new()),
            CiError::Config(String::new()),
            CiError::Tuning(String::new()),
        ];
        let mut kinds: Vec<_> = all.iter().map(|e| e.to_string()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), all.len());
    }

    #[test]
    fn result_alias_works() {
        fn f(ok: bool) -> Result<u32> {
            if ok {
                Ok(1)
            } else {
                Err(CiError::Exec("boom".into()))
            }
        }
        assert_eq!(f(true).unwrap(), 1);
        assert!(f(false).is_err());
    }
}
