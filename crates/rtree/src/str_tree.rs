//! STR (Sort-Tile-Recursive) bulk-loaded R-tree.
//!
//! Leonardi et al.'s STR packing: sort entries by centre x, cut into
//! vertical slices, sort each slice by centre y, pack runs of `M` into
//! leaves; repeat one level up until a single root remains. The result is
//! a static, cache-friendly arena of nodes with contiguous children —
//! ideal for the build-once/probe-many broadcast joins both systems in
//! the paper run.

use geom::{Envelope, Point};

/// Maximum entries per node.
const NODE_CAPACITY: usize = 16;

#[derive(Debug, Clone)]
struct Node {
    env: Envelope,
    /// Range into `envs`/`items` for leaves, into `nodes` for inner
    /// nodes.
    first: u32,
    count: u16,
    is_leaf: bool,
}

/// A static R-tree over items of type `T`.
///
/// Envelopes and items are stored apart, both permuted into leaf order:
/// a leaf scan reads one contiguous run of 32-byte envelopes and
/// touches an item only when its envelope passes the filter.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    envs: Vec<Envelope>,
    items: Vec<T>,
    nodes: Vec<Node>,
    root: u32,
    height: usize,
}

impl<T> RTree<T> {
    /// Bulk-loads a tree from `(envelope, item)` pairs.
    ///
    /// The STR sorts run over `(envelope, u32 position)` keys unless
    /// the entries are no larger; a stable sort's result depends only
    /// on its comparisons, so the leaf order is the one a sort over the
    /// full entries would give. The sorted keys hand over the envelopes
    /// in leaf order, and the items are permuted into leaf order in
    /// place, in the entries' own allocation.
    ///
    /// Entries no larger than a key skip the keys. On 200 K
    /// `(Envelope, u32)` entries (perfbench's lion filter tree, a
    /// 2-vCPU machine), sorting keys and permuting took 0.042 s against
    /// 0.035 s for sorting the entries directly: medians of 10 runs
    /// each, slower in 8 of 10 alternating pairs.
    pub fn bulk_load_entries(mut entries: Vec<(Envelope, T)>) -> RTree<T> {
        let (envs, items) = if std::mem::size_of::<T>() <= std::mem::size_of::<u32>() {
            // The envelopes reuse the entries' allocation.
            str_order(&mut entries, |e| e.0.center());
            let mut items = Vec::with_capacity(entries.len());
            let envs: Vec<Envelope> = entries
                .into_iter()
                .map(|(env, item)| {
                    items.push(item);
                    env
                })
                .collect();
            (envs, items)
        } else {
            let mut keys: Vec<(Envelope, u32)> = entries
                .iter()
                .enumerate()
                .map(|(i, (env, _))| (*env, i as u32))
                .collect();
            str_order(&mut keys, |k| k.0.center());
            let mut perm: Vec<u32> = Vec::with_capacity(keys.len());
            let envs: Vec<Envelope> = keys
                .into_iter()
                .map(|(env, pos)| {
                    perm.push(pos);
                    env
                })
                .collect();
            let mut items: Vec<T> = entries.into_iter().map(|(_, item)| item).collect();
            permute_in_place(&mut items, &mut perm);
            (envs, items)
        };
        if envs.is_empty() {
            return RTree {
                envs,
                items,
                nodes: vec![Node {
                    env: Envelope::EMPTY,
                    first: 0,
                    count: 0,
                    is_leaf: true,
                }],
                root: 0,
                height: 1,
            };
        }

        // --- pack leaves with STR ---
        let mut nodes: Vec<Node> = Vec::with_capacity(2 * envs.len() / NODE_CAPACITY + 2);
        let mut level: Vec<u32> = Vec::new();
        for (leaf, chunk) in envs.chunks(NODE_CAPACITY).enumerate() {
            nodes.push(Node {
                env: chunk.iter().fold(Envelope::EMPTY, |acc, e| acc.union(e)),
                first: (leaf * NODE_CAPACITY) as u32,
                count: chunk.len() as u16,
                is_leaf: true,
            });
            level.push((nodes.len() - 1) as u32);
        }
        let mut height = 1;

        // --- build upper levels ---
        while level.len() > 1 {
            // Re-apply STR ordering to the node centres of this level.
            let mut keyed: Vec<(Point, u32)> = level
                .iter()
                .map(|&id| (nodes[id as usize].env.center(), id))
                .collect();
            str_order(&mut keyed, |k| k.0);
            let ordered: Vec<u32> = keyed.into_iter().map(|(_, id)| id).collect();

            let mut next_level = Vec::with_capacity(ordered.len() / NODE_CAPACITY + 1);
            let mut j = 0;
            while j < ordered.len() {
                let count = NODE_CAPACITY.min(ordered.len() - j);
                // Children must be contiguous in the arena: copy them to
                // the end, then point the parent at the copies.
                let first = nodes.len() as u32;
                let mut env = Envelope::EMPTY;
                for k in 0..count {
                    let child = nodes[ordered[j + k] as usize].clone();
                    env = env.union(&child.env);
                    nodes.push(child);
                }
                nodes.push(Node {
                    env,
                    first,
                    count: count as u16,
                    is_leaf: false,
                });
                next_level.push((nodes.len() - 1) as u32);
                j += count;
            }
            level = next_level;
            height += 1;
        }

        RTree {
            envs,
            items,
            nodes,
            root: level[0],
            height,
        }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Tree height in levels (1 for a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Calls `visit` for every item whose envelope lies within `distance`
    /// of `p` — the filtering step of the `NearestD` joins. Returns the
    /// number of nodes popped; the caller folds it into its own obs
    /// flush (`PreparedSet::probe_into` pays one TLS access per point,
    /// not two).
    ///
    /// At `distance == 0` (every join probe: the envelopes are
    /// pre-expanded) the test compares the squared distance with zero,
    /// which is exactly `sqrt(d²) > 0` without the square root.
    pub fn for_each_within_distance<'a, F: FnMut(&'a T)>(
        &'a self,
        p: Point,
        distance: f64,
        visit: F,
    ) -> u64 {
        if distance == 0.0 {
            self.walk(|env| env.distance_sq_to_point(p) > 0.0, visit)
        } else {
            self.walk(|env| env.distance_to_point(p) > distance, visit)
        }
    }

    // This traversal is the filter step of every join in the workspace:
    // a fixed-size explicit stack, no heap traffic per probe. `query`
    // (above) is the allocating convenience wrapper.
    // tidy:alloc-free:start

    /// Depth-first walk that skips every node and entry whose envelope
    /// is `far`, calls `visit` on the remaining entries' items, and
    /// returns the number of nodes popped.
    #[inline]
    fn walk<'a>(&'a self, far: impl Fn(&Envelope) -> bool, mut visit: impl FnMut(&'a T)) -> u64 {
        if self.items.is_empty() {
            return 0;
        }
        // Explicit stack; tree heights are tiny (< 8 for 10M items).
        let mut stack = [0u32; 64];
        let mut sp = 0;
        stack[sp] = self.root;
        sp += 1;
        let mut visited: u64 = 0;
        while sp > 0 {
            sp -= 1;
            visited += 1;
            let node = &self.nodes[stack[sp] as usize];
            if far(&node.env) {
                continue;
            }
            let first = node.first as usize;
            let count = node.count as usize;
            if node.is_leaf {
                let envs = &self.envs[first..first + count];
                for (k, env) in envs.iter().enumerate() {
                    if !far(env) {
                        visit(&self.items[first + k]);
                    }
                }
            } else {
                for child in first..first + count {
                    stack[sp] = child as u32;
                    sp += 1;
                }
            }
        }
        visited
    }
    // tidy:alloc-free:end

    /// Entry positions in the order the traversals above visit them
    /// when nothing is pruned. Pruning only skips subtrees, so every
    /// traversal reports its hits as a subsequence of this order.
    pub fn visit_order(&self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.items.len());
        if self.items.is_empty() {
            return order;
        }
        // The same last-in-first-out stack discipline as the probes.
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            let range = node.first..node.first + u32::from(node.count);
            if node.is_leaf {
                order.extend(range);
            } else {
                stack.extend(range);
            }
        }
        order
    }

    /// Entry envelopes in leaf order. A position in this slice (and in
    /// [`RTree::items`]) is a stable handle on its entry.
    pub fn envelopes(&self) -> &[Envelope] {
        &self.envs
    }

    /// Items in leaf order, aligned with [`RTree::envelopes`].
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

/// Reorders `items` so that `items[i]` becomes the old
/// `items[perm[i]]`, following each cycle of the permutation with
/// swaps. `perm` is consumed as the visited marker.
fn permute_in_place<T>(items: &mut [T], perm: &mut [u32]) {
    const DONE: u32 = u32::MAX;
    for start in 0..perm.len() {
        let mut cur = start;
        while perm[cur] != DONE {
            let src = perm[cur] as usize;
            perm[cur] = DONE;
            if src == start {
                break;
            }
            items.swap(cur, src);
            cur = src;
        }
    }
}

/// In-place STR ordering: sort by centre x, then within each vertical
/// slice of `slice_len` by centre y.
fn str_order<K, C: Fn(&K) -> Point>(items: &mut [K], center: C) {
    let n = items.len();
    if n <= NODE_CAPACITY {
        return;
    }
    let num_leaves = n.div_ceil(NODE_CAPACITY);
    let num_slices = (num_leaves as f64).sqrt().ceil() as usize;
    let slice_len = num_leaves.div_ceil(num_slices) * NODE_CAPACITY;

    items.sort_by(|a, b| center(a).x.total_cmp(&center(b).x));
    let mut i = 0;
    while i < n {
        let end = (i + slice_len).min(n);
        items[i..end].sort_by(|a, b| center(a).y.total_cmp(&center(b).y));
        i = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Envelope;

    fn grid_boxes(n: usize) -> Vec<(Envelope, usize)> {
        // n×n unit boxes at integer offsets.
        let mut v = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (i as f64, j as f64);
                v.push((Envelope::new(x, y, x + 1.0, y + 1.0), i * n + j));
            }
        }
        v
    }

    /// The items whose envelopes hold `p`: the point query of every
    /// join probe, distance 0.
    fn at_point(tree: &RTree<usize>, p: Point) -> Vec<usize> {
        let mut got = Vec::new();
        tree.for_each_within_distance(p, 0.0, |&id| got.push(id));
        got.sort_unstable();
        got
    }

    #[test]
    fn empty_tree() {
        let t: RTree<usize> = RTree::bulk_load_entries(vec![]);
        assert!(t.is_empty());
        assert_eq!(
            t.for_each_within_distance(Point::new(0.5, 0.5), 0.0, |_| {}),
            0
        );
    }

    #[test]
    fn query_matches_linear_scan() {
        let boxes = grid_boxes(20); // 400 items, multi-level tree
        let tree = RTree::bulk_load_entries(boxes.clone());
        assert_eq!(tree.len(), 400);
        assert!(tree.height() > 1);
        // Interior, outside, a corner four boxes share, an edge two
        // share, and the far corner.
        for p in [
            Point::new(1.5, 2.5),
            Point::new(-5.0, -1.0),
            Point::new(10.0, 10.0),
            Point::new(3.0, 7.5),
            Point::new(20.0, 20.0),
        ] {
            let expected: Vec<usize> = boxes
                .iter()
                .filter(|(e, _)| e.contains(p.x, p.y))
                .map(|&(_, id)| id)
                .collect();
            assert_eq!(at_point(&tree, p), expected, "point {p:?}");
        }
        assert_eq!(at_point(&tree, Point::new(10.0, 10.0)).len(), 4);
    }

    #[test]
    fn within_distance_matches_linear_scan() {
        let boxes = grid_boxes(10);
        let tree = RTree::bulk_load_entries(boxes.clone());
        let p = Point::new(-2.0, 5.0);
        for d in [0.5, 2.0, 3.5, 100.0] {
            let mut expected: Vec<usize> = boxes
                .iter()
                .filter(|(e, _)| e.distance_to_point(p) <= d)
                .map(|&(_, id)| id)
                .collect();
            let mut got = Vec::new();
            tree.for_each_within_distance(p, d, |&id| got.push(id));
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected, "distance {d}");
        }
    }

    #[test]
    fn single_leaf_tree() {
        let tree = RTree::bulk_load_entries(vec![
            (Envelope::new(0.0, 0.0, 1.0, 1.0), 1usize),
            (Envelope::new(2.0, 2.0, 3.0, 3.0), 2usize),
        ]);
        assert_eq!(tree.height(), 1);
        assert_eq!(at_point(&tree, Point::new(0.5, 0.6)), vec![1]);
    }

    #[test]
    fn visit_order_ranks_every_probe_hit() {
        let boxes = grid_boxes(30); // 900 items, three levels
        let tree = RTree::bulk_load_entries(boxes);
        let order = tree.visit_order();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..900).collect::<Vec<u32>>());
        // Items are distinct box ids: rank each by its entry's visit rank.
        let mut rank = vec![0usize; order.len()];
        for (r, &pos) in order.iter().enumerate() {
            rank[tree.items()[pos as usize]] = r;
        }
        for (x, y, d) in [(3.5, 7.5, 0.0), (10.0, 10.0, 2.5), (0.0, 29.0, 40.0)] {
            let mut ranks = Vec::new();
            tree.for_each_within_distance(Point::new(x, y), d, |&id| ranks.push(rank[id]));
            assert!(!ranks.is_empty());
            assert!(ranks.windows(2).all(|w| w[0] < w[1]), "at ({x}, {y}) d={d}");
        }
        assert!(RTree::<usize>::bulk_load_entries(vec![])
            .visit_order()
            .is_empty());
    }

    #[test]
    fn large_tree_height_is_logarithmic() {
        let boxes = grid_boxes(64); // 4096 items
        let tree = RTree::bulk_load_entries(boxes);
        assert!(tree.height() <= 4, "height {} too deep", tree.height());
        assert_eq!(tree.items().len(), 4096);
        assert_eq!(tree.envelopes().len(), 4096);
    }

    #[test]
    fn small_key_bulk_load_keeps_the_full_entry_str_order() {
        // Boxes whose centres tie in x (shared columns) and in y (shared
        // rows) at several widths, so both stable sorts see long runs of
        // equal keys. The reference is the STR sort over the full
        // `(Envelope, id)` entries that the tree used to run.
        let mut entries = Vec::new();
        for i in 0..700usize {
            let cx = ((i * 7) % 23) as f64;
            let cy = ((i * 11) % 17) as f64;
            let half = 0.1 + (i % 5) as f64 * 0.3;
            entries.push((Envelope::new(cx - half, cy - half, cx + half, cy + half), i));
        }
        let mut reference = entries.clone();
        str_order(&mut reference, |e| e.0.center());
        let tree = RTree::bulk_load_entries(entries);
        let ids: Vec<usize> = reference.iter().map(|e| e.1).collect();
        let envs: Vec<Envelope> = reference.iter().map(|e| e.0).collect();
        assert_eq!(tree.items(), &ids[..]);
        assert_eq!(tree.envelopes(), &envs[..]);
    }

    #[test]
    fn permute_in_place_applies_every_cycle() {
        let mut items: Vec<char> = "abcdefg".chars().collect();
        // Cycles (0 3 5), (1 6), (2), (4).
        let mut perm = vec![3u32, 6, 2, 5, 4, 0, 1];
        let expected: Vec<char> = perm.iter().map(|&i| items[i as usize]).collect();
        permute_in_place(&mut items, &mut perm);
        assert_eq!(items, expected);
    }
}
