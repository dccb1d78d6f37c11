//! Strongly connected components (Tarjan) over a dense adjacency list.
//!
//! SCCs detect cyclic structures: recursion cycles in a program's call
//! graph (`progmodel`) and wiring cycles in a PerFlowGraph (`verify`).

/// Iterative Tarjan strongly connected components over a dense adjacency
/// list (`succ[v]` = successors of `v`, visited in order). No recursion:
/// deep chains must not overflow the stack. SCCs are returned in the
/// order Tarjan completes them (reverse topological order of the
/// condensation), each listed from the last vertex pushed back to its
/// root; a singleton is cyclic only if it has a self-loop.
pub fn tarjan_sccs(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = succ.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next-child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child < succ[v].len() {
                let w = succ[v][*child];
                *child += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn succ(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut succ = vec![Vec::new(); n];
        for &(a, b) in edges {
            succ[a].push(b);
        }
        succ
    }

    #[test]
    fn scc_finds_cycle() {
        let sccs = tarjan_sccs(&succ(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]));
        let cycle = sccs.iter().find(|s| s.len() == 3).expect("3-cycle SCC");
        let mut ids = cycle.clone();
        ids.sort();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(sccs.len(), 2); // the cycle + singleton {3}
    }

    #[test]
    fn scc_acyclic_gives_singletons() {
        let sccs = tarjan_sccs(&succ(4, &[(0, 1), (1, 2), (2, 3)]));
        assert_eq!(sccs.len(), 4);
        assert!(sccs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn empty_graph() {
        assert!(tarjan_sccs(&succ(0, &[])).is_empty());
    }

    #[test]
    fn two_interlocked_cycles() {
        // 0 <-> 1 and 2 <-> 3 linked by 1 -> 2.
        let sccs = tarjan_sccs(&succ(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]));
        assert_eq!(sccs.len(), 2);
        assert!(sccs.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn tarjan_handles_long_chains_iteratively() {
        // A 10_000-node chain with a closing back-edge: recursion-free
        // SCC must find the whole ring without overflowing the stack.
        let n = 10_000;
        let succ: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 1) % n]).collect();
        let sccs = tarjan_sccs(&succ);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), n);
    }
}
