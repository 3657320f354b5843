//! The unified remoting error type.
//!
//! The fallible paths of the remoting layer (gMap lookups and device
//! failures against hardware that is not, or no longer, in the gPool)
//! report through one typed [`Error`]. The enum is `#[non_exhaustive]`:
//! downstream matches carry a wildcard arm, so a new failure mode never
//! breaks compilation.

use crate::gpool::Gid;

/// Any failure surfaced by the remoting layer.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// GID outside the gMap.
    UnknownGid(Gid),
    /// The device behind a GID has failed permanently (ECC / node loss).
    DeviceLost(Gid),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnknownGid(g) => write!(f, "{g} is not in the gMap"),
            Error::DeviceLost(g) => write!(f, "{g} has failed and left the gPool"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(Error::UnknownGid(Gid(9)).to_string().contains("GID9"));
        assert!(Error::DeviceLost(Gid(3)).to_string().contains("GID3"));
    }
}
