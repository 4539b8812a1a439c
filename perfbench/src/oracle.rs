//! A naive, independent reading of the paper's definitions, computed
//! from the benchmark's own copy of the rating triples:
//!
//! * Definition 1 — Pearson over co-rated items (user means over all of
//!   a user's ratings, at least `MIN_OVERLAP` co-rated items, zero
//!   variance undefined); peers are users with similarity ≥ δ, fellow
//!   group members excluded.
//! * Equation 1 — the similarity-weighted mean of peer ratings, scattered
//!   peer by peer; undefined when no peer with positive weight rated the
//!   item (with δ = 0 a peer may carry weight 0).
//! * Definition 2 — the average over the members whose relevance is
//!   defined; undefined when none is.
//!
//! [`check_package`] compares a served package with these values and
//! [`check_properties`] checks what must hold of every package.

use crate::shadow::Relation;
use fairrec_engine::GroupRecommendation;
use fairrec_types::{ItemId, UserId};

/// The engine's defaults, which the benchmark serves with.
pub const DELTA: f64 = 0.0;
pub const MIN_OVERLAP: usize = 2;
pub const K: usize = 10;
/// Relative tolerance of every relevance comparison.
pub const TOLERANCE: f64 = 1e-9;

/// Each user's mean rating (`None` for a user with no ratings).
pub fn means(relation: &Relation) -> Vec<Option<f64>> {
    (0..relation.num_users())
        .map(|u| {
            let row = relation.row(UserId::new(u));
            (!row.is_empty()).then(|| row.values().sum::<f64>() / row.len() as f64)
        })
        .collect()
}

/// Pearson correlation of `u` and `v` over their co-rated items.
pub fn pearson(relation: &Relation, means: &[Option<f64>], u: UserId, v: UserId) -> Option<f64> {
    let (mu, mv) = (means[u.index()]?, means[v.index()]?);
    let (mut a, mut b) = (
        relation.row(u).iter().peekable(),
        relation.row(v).iter().peekable(),
    );
    let (mut n, mut num, mut den_u, mut den_v) = (0usize, 0.0, 0.0, 0.0);
    while let (Some(&(iu, ru)), Some(&(iv, rv))) = (a.peek(), b.peek()) {
        if iu < iv {
            a.next();
        } else if iv < iu {
            b.next();
        } else {
            let (du, dv) = (ru - mu, rv - mv);
            num += du * dv;
            den_u += du * du;
            den_v += dv * dv;
            n += 1;
            a.next();
            b.next();
        }
    }
    if n < MIN_OVERLAP || den_u == 0.0 || den_v == 0.0 {
        return None;
    }
    Some((num / (den_u * den_v).sqrt()).clamp(-1.0, 1.0))
}

/// Definition 1: `u`'s peers outside `exclude`, ascending by id.
pub fn peers(
    relation: &Relation,
    means: &[Option<f64>],
    u: UserId,
    exclude: &[UserId],
) -> Vec<(UserId, f64)> {
    (0..relation.num_users())
        .map(UserId::new)
        .filter(|&v| v != u && !exclude.contains(&v))
        .filter_map(|v| pearson(relation, means, u, v).map(|s| (v, s)))
        .filter(|&(_, s)| s >= DELTA)
        .collect()
}

/// Equation 1 and Definition 2 over the group's candidates (items no
/// member rated, ascending).
#[derive(Debug, Clone)]
pub struct GroupOracle {
    pub items: Vec<ItemId>,
    /// `member[m][j]`: relevance of `items[j]` for member `m`.
    pub member: Vec<Vec<Option<f64>>>,
    pub group: Vec<Option<f64>>,
}

impl GroupOracle {
    pub fn new(relation: &Relation, means: &[Option<f64>], members: &[UserId]) -> Self {
        let items: Vec<ItemId> = (0..relation.num_items())
            .map(ItemId::new)
            .filter(|&i| members.iter().all(|&m| relation.get(m, i).is_none()))
            .collect();
        let mut slot = vec![usize::MAX; relation.num_items() as usize];
        for (j, i) in items.iter().enumerate() {
            slot[i.index()] = j;
        }
        let member: Vec<Vec<Option<f64>>> = members
            .iter()
            .map(|&m| {
                let (mut num, mut den) = (vec![0.0; items.len()], vec![0.0; items.len()]);
                for (p, sim) in peers(relation, means, m, members) {
                    for (&i, &r) in relation.row(p) {
                        let j = slot[i.index()];
                        if j != usize::MAX {
                            num[j] += sim * r;
                            den[j] += sim;
                        }
                    }
                }
                num.iter()
                    .zip(&den)
                    .map(|(&n, &d)| (d > 0.0).then(|| n / d))
                    .collect()
            })
            .collect();
        let group = (0..items.len())
            .map(|j| {
                let defined: Vec<f64> = member.iter().filter_map(|row| row[j]).collect();
                (!defined.is_empty()).then(|| defined.iter().sum::<f64>() / defined.len() as f64)
            })
            .collect();
        Self {
            items,
            member,
            group,
        }
    }

    /// Candidates with a defined group relevance (the candidate pool).
    pub fn pool(&self) -> Vec<usize> {
        (0..self.items.len())
            .filter(|&j| self.group[j].is_some())
            .collect()
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOLERANCE * a.abs().max(b.abs())
}

fn same(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => close(a, b),
        _ => false,
    }
}

/// Checks a served package against the oracle: every item's member and
/// group relevance, the pool size, each member's `satisfied` flag
/// against their recomputed top-k (any order among tied scores is
/// accepted), and `fairness`.
pub fn check_package(
    oracle: &GroupOracle,
    members: &[UserId],
    k: usize,
    rec: &GroupRecommendation,
) -> Result<(), String> {
    let pool = oracle.pool();
    if rec.pool_size != pool.len() {
        return Err(format!(
            "pool size {} where the oracle has {}",
            rec.pool_size,
            pool.len()
        ));
    }
    let mut positions = Vec::with_capacity(rec.items.len());
    for served in &rec.items {
        let j = oracle
            .items
            .binary_search(&served.item)
            .map_err(|_| format!("{} is not a candidate of the group", served.item))?;
        if !same(Some(served.group_relevance), oracle.group[j]) {
            return Err(format!(
                "group relevance of {} is {} where the oracle has {:?}",
                served.item, served.group_relevance, oracle.group[j]
            ));
        }
        for (m, &got) in served.member_relevance.iter().enumerate() {
            if !same(got, oracle.member[m][j]) {
                return Err(format!(
                    "relevance of {} for {} is {:?} where the oracle has {:?}",
                    served.item, members[m], got, oracle.member[m][j]
                ));
            }
        }
        positions.push(j);
    }
    for (m, sat) in rec.members.iter().enumerate() {
        let mut scores: Vec<f64> = pool.iter().filter_map(|&j| oracle.member[m][j]).collect();
        scores.sort_by(|a, b| b.total_cmp(a));
        // Items scoring clearly above the k-th best are in the top-k
        // whatever the tie order; items tied with it may or may not be.
        let kth = scores.get(k - 1).copied();
        let (mut sure, mut maybe) = (false, false);
        for &j in &positions {
            if let Some(s) = oracle.member[m][j] {
                match kth {
                    None => sure = true,
                    Some(t) if close(s, t) => maybe = true,
                    Some(t) if s > t => sure = true,
                    Some(_) => {}
                }
            }
        }
        if (sure && !sat.satisfied) || (!sure && !maybe && sat.satisfied) {
            return Err(format!(
                "{} reported satisfied = {} against the oracle's top-{k}",
                sat.user, sat.satisfied
            ));
        }
    }
    Ok(())
}

/// What must hold of every served package: one entry per member in
/// group order, size min(z, pool size), distinct items none of which a
/// member rated, and `fairness` = satisfied members / |G|.
pub fn check_properties(
    relation: &Relation,
    members: &[UserId],
    z: usize,
    rec: &GroupRecommendation,
) -> Result<(), String> {
    let users: Vec<UserId> = rec.members.iter().map(|m| m.user).collect();
    if users != members {
        return Err(format!("members {users:?} where the group is {members:?}"));
    }
    if rec.items.len() != z.min(rec.pool_size) {
        return Err(format!(
            "{} items for z = {z} over a pool of {}",
            rec.items.len(),
            rec.pool_size
        ));
    }
    for (n, served) in rec.items.iter().enumerate() {
        if rec.items[..n].iter().any(|s| s.item == served.item) {
            return Err(format!("{} appears twice", served.item));
        }
        if served.member_relevance.len() != members.len() {
            return Err(format!("{} lacks a relevance per member", served.item));
        }
        if let Some(&m) = members
            .iter()
            .find(|&&m| relation.get(m, served.item).is_some())
        {
            return Err(format!("{} was already rated by member {m}", served.item));
        }
    }
    let satisfied = rec.members.iter().filter(|m| m.satisfied).count();
    if rec.fairness != satisfied as f64 / members.len() as f64 {
        return Err(format!(
            "fairness {} with {satisfied} of {} members satisfied",
            rec.fairness,
            members.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrec_core::Group;
    use fairrec_engine::{EngineConfig, MemberSatisfaction, RecommendedItem, RecommenderEngine};
    use fairrec_types::{GroupId, Parallelism, RatingMatrixBuilder};

    fn u(n: u32) -> UserId {
        UserId::new(n)
    }

    fn i(n: u32) -> ItemId {
        ItemId::new(n)
    }

    /// Four users, five items, every mean exactly 3:
    ///
    /// | user | i0 | i1 | i2 | i3 | i4 |
    /// |------|----|----|----|----|----|
    /// | u0   | 5  | 1  | 3  |    |    |
    /// | u1   | 1  | 5  |    |    |    |
    /// | u2   | 4  | 2  |    | 5  | 1  |
    /// | u3   | 3  | 1  | 5  | 3  |    |
    ///
    /// For the group {u0, u1}: sim(u0, u2) = 4 / √(8·2) = 1,
    /// sim(u0, u3) = 4 / √(8·8) = 0.5, sim(u1, u2) = −1 and
    /// sim(u1, u3) = −4 / √(8·4) < 0, so u0's peers are {u2, u3} and u1
    /// has none. Candidates are i3 and i4; for u0,
    /// relevance(i3) = (1·5 + 0.5·3) / 1.5 = 13/3 and relevance(i4) = 1.
    const FIXTURE: [(u32, u32, f64); 13] = [
        (0, 0, 5.0),
        (0, 1, 1.0),
        (0, 2, 3.0),
        (1, 0, 1.0),
        (1, 1, 5.0),
        (2, 0, 4.0),
        (2, 1, 2.0),
        (2, 3, 5.0),
        (2, 4, 1.0),
        (3, 0, 3.0),
        (3, 1, 1.0),
        (3, 2, 5.0),
        (3, 3, 3.0),
    ];

    fn relation() -> Relation {
        let mut r = Relation::new(4, 5);
        for (user, item, score) in FIXTURE {
            r.put(u(user), i(item), score);
        }
        r
    }

    fn oracle() -> GroupOracle {
        let r = relation();
        GroupOracle::new(&r, &means(&r), &[u(0), u(1)])
    }

    /// The package the definitions give for z = 1, k = 1: i3 alone,
    /// satisfying u0 only.
    fn package() -> GroupRecommendation {
        GroupRecommendation {
            items: vec![RecommendedItem {
                item: i(3),
                group_relevance: 13.0 / 3.0,
                member_relevance: vec![Some(13.0 / 3.0), None],
                padded: false,
            }],
            fairness: 0.5,
            value: 0.5 * 13.0 / 3.0,
            members: vec![
                MemberSatisfaction {
                    user: u(0),
                    satisfied: true,
                    best_package_rank: Some(0),
                    personal_best: None,
                },
                MemberSatisfaction {
                    user: u(1),
                    satisfied: false,
                    best_package_rank: None,
                    personal_best: None,
                },
            ],
            pool_size: 2,
        }
    }

    #[test]
    fn pearson_matches_the_hand_computation() {
        let r = relation();
        let m = means(&r);
        assert_eq!(m, vec![Some(3.0); 4]);
        assert_eq!(pearson(&r, &m, u(0), u(2)), Some(1.0));
        assert_eq!(pearson(&r, &m, u(0), u(3)), Some(0.5));
        assert_eq!(pearson(&r, &m, u(1), u(2)), Some(-1.0));
        assert!(pearson(&r, &m, u(1), u(3)).unwrap() < 0.0);
        assert_eq!(peers(&r, &m, u(0), &[u(1)]), vec![(u(2), 1.0), (u(3), 0.5)]);
        assert!(peers(&r, &m, u(1), &[u(0)]).is_empty());
    }

    #[test]
    fn a_single_co_rated_item_is_undefined() {
        let mut r = relation();
        r.remove(u(2), i(1));
        let m = means(&r);
        assert_eq!(pearson(&r, &m, u(0), u(2)), None);
    }

    #[test]
    fn equation_1_and_definition_2_match_the_hand_computation() {
        let o = oracle();
        assert_eq!(o.items, vec![i(3), i(4)]);
        assert!(close(o.member[0][0].unwrap(), 13.0 / 3.0));
        assert_eq!(o.member[0][1], Some(1.0));
        assert_eq!(o.member[1], vec![None, None]);
        assert!(close(o.group[0].unwrap(), 13.0 / 3.0));
        assert_eq!(o.group[1], Some(1.0));
        assert_eq!(o.pool(), vec![0, 1]);
    }

    #[test]
    fn the_hand_computed_package_passes() {
        let members = [u(0), u(1)];
        check_package(&oracle(), &members, 1, &package()).unwrap();
        check_properties(&relation(), &members, 1, &package()).unwrap();
    }

    #[test]
    fn a_perturbed_prediction_is_rejected() {
        let members = [u(0), u(1)];
        let mut rec = package();
        rec.items[0].member_relevance[0] = Some(13.0 / 3.0 * (1.0 + 1e-6));
        assert!(check_package(&oracle(), &members, 1, &rec).is_err());
        let mut rec = package();
        rec.items[0].group_relevance += 1e-6;
        assert!(check_package(&oracle(), &members, 1, &rec).is_err());
        let mut rec = package();
        rec.items[0].member_relevance[1] = Some(2.0);
        assert!(check_package(&oracle(), &members, 1, &rec).is_err());
    }

    #[test]
    fn wrong_satisfaction_and_fairness_are_rejected() {
        let members = [u(0), u(1)];
        let mut rec = package();
        rec.members[1].satisfied = true;
        assert!(check_package(&oracle(), &members, 1, &rec).is_err());
        let mut rec = package();
        rec.fairness = 1.0;
        assert!(check_properties(&relation(), &members, 1, &rec).is_err());
    }

    #[test]
    fn a_rated_or_repeated_item_is_rejected() {
        let members = [u(0), u(1)];
        let mut rec = package();
        rec.items[0].item = i(2);
        assert!(check_properties(&relation(), &members, 1, &rec).is_err());
        let mut rec = package();
        rec.items.push(rec.items[0].clone());
        rec.pool_size = 2;
        assert!(check_properties(&relation(), &members, 2, &rec).is_err());
    }

    #[test]
    fn the_engine_agrees_with_the_oracle_on_the_fixture() {
        let mut b = RatingMatrixBuilder::new().reserve_ids(4, 5);
        for (user, item, score) in FIXTURE {
            b.add_raw(u(user), i(item), score).unwrap();
        }
        let config = EngineConfig {
            k: 1,
            parallelism: Parallelism::Sequential,
            ..EngineConfig::default()
        };
        let engine = RecommenderEngine::new(
            b.build().unwrap(),
            Default::default(),
            fairrec_ontology::snomed::clinical_fragment(),
            config,
        )
        .unwrap();
        let group = Group::new(GroupId::new(0), [u(0), u(1)]).unwrap();
        for z in 1..=2 {
            let rec = engine.recommend_for_group(&group, z).unwrap();
            check_package(&oracle(), group.members(), 1, &rec).unwrap();
            check_properties(&relation(), group.members(), z, &rec).unwrap();
        }
    }
}
