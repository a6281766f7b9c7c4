//! Communication distance between two hardware threads.

/// At which level of the memory hierarchy two threads exchange data.
///
/// The RAMR pinning policy minimizes this distance for every
/// mapper↔combiner pair; the performance model prices each queue element
/// transfer by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommDistance {
    /// SMT siblings on one physical core: traffic stays in the private
    /// L1/L2 and the two threads can overlap complementary (compute vs
    /// memory) resource usage.
    SharedCore,
    /// Same socket, different cores: traffic through the socket-shared
    /// cache (L3 on Haswell, the local ring neighbourhood on the Phi).
    SameSocket,
    /// Different sockets (or distant ring positions): traffic over the
    /// inter-socket link / many ring hops.
    CrossSocket,
    /// At least one endpoint is not pinned and may migrate; the expected
    /// distance over the scheduler's placements applies.
    Unpinned,
}

impl std::fmt::Display for CommDistance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CommDistance::SharedCore => "shared-core",
            CommDistance::SameSocket => "same-socket",
            CommDistance::CrossSocket => "cross-socket",
            CommDistance::Unpinned => "unpinned",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_order_by_physical_proximity() {
        assert!(CommDistance::SharedCore < CommDistance::SameSocket);
        assert!(CommDistance::SameSocket < CommDistance::CrossSocket);
    }

    #[test]
    fn display_names() {
        assert_eq!(CommDistance::SharedCore.to_string(), "shared-core");
        assert_eq!(CommDistance::Unpinned.to_string(), "unpinned");
    }
}
