//! Semantic component versions: `branch@schema.increment` (§IV-B).
//!
//! * `branch` — Git-like branch the version was committed on (`master` when
//!   omitted in display).
//! * `schema` — bumped when the component's *output data schema* changes;
//!   this is the sole compatibility signal between adjacent components.
//! * `increment` — bumped for updates that keep the output schema.
//!
//! The paper's notation `<feature_extract, master@0.1>` denotes a component
//! plus its semantic version; on `master` it abbreviates to
//! `<feature_extract, 0.1>`. The initial version of a committed library is
//! `0.0`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A `branch@schema.increment` semantic version.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SemVer {
    /// Branch name (defaults to `master`).
    pub branch: String,
    /// Output-schema generation.
    pub schema: u32,
    /// Schema-preserving update counter.
    pub increment: u32,
}

impl Clone for SemVer {
    fn clone(&self) -> Self {
        SemVer {
            branch: self.branch.clone(),
            schema: self.schema,
            increment: self.increment,
        }
    }

    /// Field by field, so the branch name keeps its buffer: a key
    /// reassigned per lookup allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        let SemVer {
            branch,
            schema,
            increment,
        } = source;
        self.branch.clone_from(branch);
        self.schema = *schema;
        self.increment = *increment;
    }
}

impl SemVer {
    /// The initial version of a committed library: `master@0.0`.
    pub fn initial() -> SemVer {
        SemVer {
            branch: "master".to_string(),
            schema: 0,
            increment: 0,
        }
    }

    /// Constructs a version on `master`.
    pub fn master(schema: u32, increment: u32) -> SemVer {
        SemVer {
            branch: "master".to_string(),
            schema,
            increment,
        }
    }
}

impl Default for SemVer {
    fn default() -> Self {
        SemVer::initial()
    }
}

impl fmt::Display for SemVer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.branch == "master" {
            write!(f, "{}.{}", self.schema, self.increment)
        } else {
            write!(f, "{}@{}.{}", self.branch, self.schema, self.increment)
        }
    }
}

/// Error parsing a semantic version string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSemVerError(String);

impl fmt::Display for ParseSemVerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid semantic version '{}'", self.0)
    }
}

impl std::error::Error for ParseSemVerError {}

impl FromStr for SemVer {
    type Err = ParseSemVerError;

    /// Parses `branch@schema.increment` or the `schema.increment` shorthand
    /// (implying `master`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseSemVerError(s.to_string());
        let (branch, rest) = match s.split_once('@') {
            Some((b, r)) => {
                if b.is_empty() || b.contains('.') {
                    return Err(err());
                }
                (b.to_string(), r)
            }
            None => ("master".to_string(), s),
        };
        let (schema, increment) = rest.split_once('.').ok_or_else(err)?;
        Ok(SemVer {
            branch,
            schema: schema.parse().map_err(|_| err())?,
            increment: increment.parse().map_err(|_| err())?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn initial_is_master_zero() {
        let v = SemVer::initial();
        assert_eq!(v.branch, "master");
        assert_eq!((v.schema, v.increment), (0, 0));
        assert_eq!(v, SemVer::default());
    }

    #[test]
    fn display_master_shorthand() {
        assert_eq!(SemVer::master(0, 1).to_string(), "0.1");
        assert_eq!(
            SemVer {
                branch: "dev".to_string(),
                schema: 1,
                increment: 0
            }
            .to_string(),
            "dev@1.0"
        );
    }

    #[test]
    fn parse_both_forms() {
        assert_eq!("0.1".parse::<SemVer>().unwrap(), SemVer::master(0, 1));
        assert_eq!(
            "jane-dev@2.3".parse::<SemVer>().unwrap(),
            SemVer {
                branch: "jane-dev".to_string(),
                schema: 2,
                increment: 3
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "1", "a.b", "@1.0", "x@y@1.0", "1.0.0@x", "-1.0"] {
            assert!(bad.parse::<SemVer>().is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn ordering_groups_by_branch_then_numbers() {
        let a = SemVer::master(0, 1);
        let b = SemVer::master(0, 2);
        let c = SemVer::master(1, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn serde_round_trip() {
        let v = SemVer {
            branch: "frank-dev".to_string(),
            schema: 3,
            increment: 7,
        };
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(serde_json::from_str::<SemVer>(&json).unwrap(), v);
    }

    proptest! {
        #[test]
        fn prop_display_parse_round_trip(schema in 0u32..1000, inc in 0u32..1000, use_branch: bool) {
            let v = if use_branch {
                SemVer { branch: "dev-x".to_string(), schema, increment: inc }
            } else {
                SemVer::master(schema, inc)
            };
            let parsed: SemVer = v.to_string().parse().unwrap();
            prop_assert_eq!(parsed, v);
        }
    }
}
