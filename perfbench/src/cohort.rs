//! The seeded inputs: one synthetic cohort shared by every workload, the
//! request stream and the write events.

use crate::shadow::Relation;
use fairrec_core::Group;
use fairrec_data::{SyntheticConfig, SyntheticDataset};
use fairrec_ontology::Ontology;
use fairrec_types::{GroupId, ItemId, RatingMatrixBuilder, UserId};
use std::collections::HashSet;

/// Cohort shape. Dense enough that the symmetric warm takes several
/// tenths of a second and a warm monolithic request ~14 ms, so neither
/// set-up nor serving is a figure that timer noise dominates.
const USERS: u32 = 4000;
const ITEMS: u32 = 2000;
const COMMUNITIES: u32 = 4;
/// Ratings the generator draws per user before thinning.
const DRAWN_PER_USER: u32 = 80;
/// Thinned degrees are `MIN_DEGREE + ⌊SPREAD · x²⌋`, x uniform: mean 40,
/// median 35, up to 80 — active users rate more, as in real cohorts.
const MIN_DEGREE: u32 = 20;
const DEGREE_SPREAD: f64 = 60.0;
/// Removals never take a user below this many ratings, so every user
/// keeps enough co-ratings for Pearson to stay meaningful.
const REMOVAL_FLOOR: usize = 12;

/// SplitMix64: a tiny, fully specified generator, so every input the
/// benchmark derives from `--seed` is reproducible from this file alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fork(&mut self, stream: u64) -> Rng {
        Rng::new(self.next_u64() ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }
}

/// Generates the cohort: `fairrec-data`'s four-community generator,
/// then each user's list thinned to a seeded, skewed degree.
pub fn generate(seed: u64, ontology: &Ontology) -> SyntheticDataset {
    let mut data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users: USERS,
            num_items: ITEMS,
            num_communities: COMMUNITIES,
            ratings_per_user: DRAWN_PER_USER,
            seed,
            ..Default::default()
        },
        ontology,
    )
    .expect("the generator's configuration is valid");
    let mut rng = Rng::new(seed).fork(1);
    let mut builder = RatingMatrixBuilder::with_capacity((USERS * 40) as usize)
        .reserve_ids(data.matrix.num_users(), data.matrix.num_items());
    for u in data.matrix.user_ids() {
        let x = rng.unit();
        let keep = MIN_DEGREE as usize + (DEGREE_SPREAD * x * x) as usize;
        let mut ratings: Vec<(ItemId, f64)> = data.matrix.ratings_of(u).collect();
        for slot in (1..ratings.len()).rev() {
            ratings.swap(slot, rng.below(slot as u64 + 1) as usize);
        }
        for &(item, score) in ratings.iter().take(keep) {
            builder
                .add_raw(u, item, score)
                .expect("scores come from a valid matrix");
        }
    }
    data.matrix = builder.build().expect("every user keeps ratings");
    data
}

/// One `(group, z)` request.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    pub group: Group,
    pub z: usize,
}

/// Cohort-diverse groups of 2–5 members with z ∈ {4, 6, 10}; no
/// `(members, z)` repeats within a run, so request coalescing never
/// fires and every request is computed.
pub struct RequestGen {
    rng: Rng,
    by_community: Vec<Vec<UserId>>,
    seen: HashSet<(Vec<UserId>, usize)>,
    next_id: u64,
}

impl RequestGen {
    pub fn new(rng: Rng, data: &SyntheticDataset) -> Self {
        let by_community = (0..COMMUNITIES)
            .map(|c| data.communities.users_of_community(c))
            .collect();
        Self {
            rng,
            by_community,
            seen: HashSet::new(),
            next_id: 0,
        }
    }

    pub fn next(&mut self) -> Request {
        loop {
            let size = 2 + self.rng.below(4) as usize;
            let z = [4, 6, 10][self.rng.below(3) as usize];
            let first = self.rng.below(u64::from(COMMUNITIES)) as usize;
            let mut members = Vec::with_capacity(size);
            // Round-robin over the communities so a group spans as many
            // cohorts as its size allows.
            while members.len() < size {
                let pool = &self.by_community[(first + members.len()) % COMMUNITIES as usize];
                let user = pool[self.rng.below(pool.len() as u64) as usize];
                if !members.contains(&user) {
                    members.push(user);
                }
            }
            members.sort_unstable();
            if self.seen.insert((members.clone(), z)) {
                let id = self.next_id;
                self.next_id += 1;
                let group = Group::new(GroupId::new(id as u32), members).expect("non-empty group");
                return Request { id, group, z };
            }
        }
    }
}

/// One write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// `ingest_rating` — an insert or an update, as the relation has it.
    Put {
        user: UserId,
        item: ItemId,
        score: f64,
    },
    /// `remove_rating` of a stored rating.
    Remove { user: UserId, item: ItemId },
}

/// Write events over the current relation. Writers are drawn in
/// proportion to their degree (active users rate more).
pub struct EventGen {
    rng: Rng,
}

impl EventGen {
    pub fn new(rng: Rng) -> Self {
        Self { rng }
    }

    fn writer(&mut self, relation: &Relation) -> UserId {
        let max = relation.max_degree().max(1) as u64;
        loop {
            let user = UserId::new(self.rng.below(u64::from(relation.num_users())) as u32);
            if self.rng.below(max) < relation.degree(user) as u64 {
                return user;
            }
        }
    }

    fn score(&mut self) -> f64 {
        (1 + self.rng.below(5)) as f64
    }

    /// An insert (70 %) or an update of one of the writer's ratings,
    /// never to a pair in `taken` (keeps a batch free of duplicates).
    pub fn put(
        &mut self,
        relation: &Relation,
        taken: &[(UserId, ItemId)],
    ) -> (UserId, ItemId, f64) {
        loop {
            let user = self.writer(relation);
            let item = if self.rng.below(10) < 3 {
                let n = self.rng.below(relation.degree(user) as u64) as usize;
                relation.rated_item(user, n)
            } else {
                ItemId::new(self.rng.below(u64::from(relation.num_items())) as u32)
            };
            if !taken.contains(&(user, item)) {
                return (user, item, self.score());
            }
        }
    }

    /// A removal of one stored rating of a writer above the floor.
    pub fn remove(&mut self, relation: &Relation) -> Event {
        loop {
            let user = self.writer(relation);
            if relation.degree(user) > REMOVAL_FLOOR {
                let n = self.rng.below(relation.degree(user) as u64) as usize;
                let item = relation.rated_item(user, n);
                return Event::Remove { user, item };
            }
        }
    }
}
