/**
 * @file
 * Native load program for the capture and monitor workloads.
 *
 * It has no heapmd dependencies: under `heapmd capture` it stands in
 * for an arbitrary multi-threaded C/C++ program.  Every decision is
 * drawn from a seeded generator, so one seed gives one heap shape and
 * one operation sequence on every run, plain or captured.
 *
 *   churn SEED THREADS LIVE OPS
 *       Each of THREADS threads builds a live set of about LIVE
 *       objects -- singly-linked lists, binary trees and hash chains
 *       with realloc'd payload buffers -- then performs OPS random
 *       mutations of it (malloc/calloc/realloc/free and pointer
 *       stores).  Only the mutation phase is timed.  Prints
 *       `op_ns`, a sample of single allocator-call latencies
 *       (`call_ns_p50`, `call_ns_p99`), `maxrss_kb` and a checksum
 *       that depends only on the seed.
 *
 *   paced SEED OPS_PER_MS RUN_MS EPISODES LATE_FILE
 *       Single-threaded open loop of RUN_MS one-millisecond ticks.
 *       Tick k is due at start + k ms and churns OPS_PER_MS rounds of
 *       a fixed-shape list pool (a steady heap).  EPISODES drift
 *       windows are placed at seeded times: from each onset the
 *       program adds pointer-free singletons every tick (the degree
 *       mix drifts as in `capture_child drift`, as a ramp instead of
 *       one burst), prints `onset_realtime_ns`, then frees them all
 *       and returns to the steady mix.  Each tick's actual start, in
 *       ns after the schedule start, goes to LATE_FILE.
 *
 *   steady SEED OPS_PER_MS RUN_MS EPISODES LATE_FILE
 *       The same ticks back to back, without sleeping: the training
 *       run for the paced mode (pass EPISODES 0).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

namespace
{

using Clock = std::chrono::steady_clock;

struct Rng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        std::uint64_t x = state;
        x ^= x >> 29;
        x *= 0xbf58476d1ce4e5b9ull;
        return x ^ (x >> 32);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

void *
checked(void *ptr)
{
    if (ptr == nullptr)
        std::abort();
    return ptr;
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

// ---------------------------------------------------------------- churn

struct ListNode
{
    ListNode *next;
    std::uint64_t key;
};

struct TreeNode
{
    TreeNode *left;
    TreeNode *right;
    std::uint64_t key;
};

struct HashNode
{
    HashNode *next;
    std::uint64_t key;
    unsigned char *payload; //!< realloc'd buffer
    std::uint64_t payloadSize;
};

constexpr int kLists = 64;
constexpr int kTrees = 16;
constexpr int kBuckets = 512;
constexpr int kTreeHeight = 8; //!< at most 255 nodes a tree
constexpr int kRebuildDepth = 5; //!< subtrees are rebuilt this deep

/**
 * One thread's live set plus the sampled call latencies.  Every
 * allocator call in the mutation phase goes through call(); the first
 * call of every kSampleEvery-th mutation is timed on its own.
 */
class Churner
{
  public:
    Churner(std::uint64_t seed, int live)
        : rng_{seed * 0x9e3779b97f4a7c15ull + 1}, live_(live)
    {
    }

    void
    build()
    {
        // A quarter of the live set each in lists, trees, hash nodes
        // and their payload buffers.
        const int per = std::max(live_ / 4, kLists);
        for (int i = 0; i < kLists; ++i)
            for (int n = 0; n < per / kLists; ++n)
                pushList(i);
        for (int i = 0; i < kTrees; ++i)
            trees_[i] = buildTree(kTreeHeight);
        buckets_ = static_cast<HashNode **>(
            checked(std::calloc(kBuckets, sizeof(HashNode *))));
        for (int n = 0; n < per; ++n)
            insertHash();
        samples_.reserve(1 << 16);
    }

    void
    mutate(int ops)
    {
        for (int i = 0; i < ops; ++i) {
            timed_ = (++calls_ % kSampleEvery) == 0;
            const std::uint64_t pick = rng_.below(100);
            if (pick < 35) {
                const int l = static_cast<int>(rng_.below(kLists));
                popList(l);
                pushList(l);
            } else if (pick < 55) {
                rebuildSubtree();
            } else if (pick < 80) {
                insertHash();
                eraseHash();
            } else {
                resizePayload();
            }
        }
    }

    std::uint64_t
    checksum() const
    {
        std::uint64_t sum = 0;
        for (const ListNode *l : lists_)
            for (; l != nullptr; l = l->next)
                sum += l->key;
        for (const TreeNode *t : trees_)
            sum += treeSum(t);
        for (int b = 0; b < kBuckets; ++b)
            for (const HashNode *h = buckets_[b]; h != nullptr;
                 h = h->next)
                sum += h->key + h->payloadSize;
        return sum;
    }

    const std::vector<std::uint32_t> &samples() const { return samples_; }

  private:
    static constexpr std::uint64_t kSampleEvery = 8;

    template <typename Fn>
    void *
    call(Fn &&fn)
    {
        if (!timed_)
            return fn();
        const Clock::time_point start = Clock::now();
        void *out = fn();
        const auto ns = std::chrono::duration_cast<
                            std::chrono::nanoseconds>(Clock::now() - start)
                            .count();
        if (samples_.size() < samples_.capacity())
            samples_.push_back(static_cast<std::uint32_t>(
                std::min<long long>(ns, UINT32_MAX)));
        timed_ = false;
        return out;
    }

    void
    release(void *ptr)
    {
        call([ptr] {
            std::free(ptr);
            return static_cast<void *>(nullptr);
        });
    }

    void
    pushList(int l)
    {
        auto *node = static_cast<ListNode *>(checked(
            call([] { return std::malloc(sizeof(ListNode)); })));
        node->key = rng_.next() & 0xffff;
        node->next = lists_[l];
        lists_[l] = node;
    }

    void
    popList(int l)
    {
        ListNode *head = lists_[l];
        if (head == nullptr)
            return;
        lists_[l] = head->next;
        release(head);
    }

    TreeNode *
    buildTree(int depth)
    {
        if (depth == 0)
            return nullptr;
        auto *node = static_cast<TreeNode *>(checked(
            call([] { return std::malloc(sizeof(TreeNode)); })));
        node->key = rng_.next() & 0xffff;
        node->left = buildTree(depth - 1);
        // Right spines are shorter, so trees are not all complete.
        node->right = rng_.below(4) == 0 ? nullptr
                                          : buildTree(depth - 1);
        return node;
    }

    void
    freeTree(TreeNode *node)
    {
        if (node == nullptr)
            return;
        freeTree(node->left);
        freeTree(node->right);
        release(node);
    }

    static std::uint64_t
    treeSum(const TreeNode *node)
    {
        if (node == nullptr)
            return 0;
        return node->key + treeSum(node->left) + treeSum(node->right);
    }

    /** Replace a random subtree kTreeDepth levels down. */
    void
    rebuildSubtree()
    {
        TreeNode **slot = &trees_[rng_.below(kTrees)];
        for (int d = 0; d < kRebuildDepth && *slot != nullptr; ++d)
            slot = rng_.below(2) == 0 ? &(*slot)->left : &(*slot)->right;
        freeTree(*slot);
        *slot = buildTree(kTreeHeight - kRebuildDepth);
    }

    void
    insertHash()
    {
        auto *node = static_cast<HashNode *>(checked(
            call([] { return std::calloc(1, sizeof(HashNode)); })));
        node->key = rng_.next();
        node->payloadSize = 16 + rng_.below(112);
        node->payload = static_cast<unsigned char *>(checked(call(
            [node] { return std::malloc(node->payloadSize); })));
        std::memset(node->payload, static_cast<int>(node->key & 0xff),
                    node->payloadSize);
        HashNode *&bucket = buckets_[node->key % kBuckets];
        node->next = bucket;
        bucket = node;
    }

    void
    eraseHash()
    {
        HashNode *&bucket = buckets_[rng_.below(kBuckets)];
        HashNode *victim = bucket;
        if (victim == nullptr)
            return;
        bucket = victim->next;
        release(victim->payload);
        release(victim);
    }

    void
    resizePayload()
    {
        HashNode *node = buckets_[rng_.below(kBuckets)];
        if (node == nullptr)
            return;
        const std::uint64_t size = 16 + rng_.below(240);
        node->payload = static_cast<unsigned char *>(checked(call(
            [node, size] { return std::realloc(node->payload, size); })));
        if (size > node->payloadSize)
            std::memset(node->payload + node->payloadSize, 0x5a,
                        size - node->payloadSize);
        node->payloadSize = size;
    }

    Rng rng_;
    int live_;
    ListNode *lists_[kLists] = {};
    TreeNode *trees_[kTrees] = {};
    HashNode **buckets_ = nullptr;
    std::vector<std::uint32_t> samples_;
    std::uint64_t calls_ = 0;
    bool timed_ = false;
};

std::uint32_t
percentile(std::vector<std::uint32_t> &values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1) + 0.5);
    return values[idx];
}

long
maxRssKb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

int
runChurn(std::uint64_t seed, int threads, int live, int ops)
{
    std::vector<Churner> churners;
    churners.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        churners.emplace_back(seed * 131 + static_cast<std::uint64_t>(t),
                              live);

    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    for (Churner &churner : churners) {
        pool.emplace_back([&churner, &ready, &go, ops] {
            churner.build();
            ready.fetch_add(1);
            while (!go.load())
                std::this_thread::yield();
            churner.mutate(ops);
        });
    }
    while (ready.load() != threads)
        std::this_thread::yield();
    const std::uint64_t start = nowNs();
    go.store(true);
    for (std::thread &thread : pool)
        thread.join();
    const std::uint64_t op_ns = nowNs() - start;

    std::uint64_t sum = 0;
    std::vector<std::uint32_t> samples;
    for (const Churner &churner : churners) {
        sum += churner.checksum();
        samples.insert(samples.end(), churner.samples().begin(),
                       churner.samples().end());
    }
    const std::uint32_t p50 = percentile(samples, 0.50);
    const std::uint32_t p99 = percentile(samples, 0.99);
    std::printf("op_ns %llu\ncalls_timed %zu\ncall_ns_p50 %u\n"
                "call_ns_p99 %u\nmaxrss_kb %ld\nchecksum %llu\n",
                static_cast<unsigned long long>(op_ns), samples.size(),
                p50, p99, maxRssKb(), static_cast<unsigned long long>(sum));
    return 0;
}

// ---------------------------------------------------------------- paced

constexpr int kPoolLists = 32;
constexpr int kPoolLen = 4;
constexpr int kRampPerTick = 8; //!< singletons added per drift tick
constexpr int kSingletons = 4000; //!< reserved for one drift window

ListNode *
buildPoolList(std::uint64_t *sum)
{
    ListNode *head = nullptr;
    for (int i = 0; i < kPoolLen; ++i) {
        auto *node =
            static_cast<ListNode *>(checked(std::malloc(sizeof(ListNode))));
        node->next = head;
        node->key = static_cast<std::uint64_t>(i);
        head = node;
    }
    for (const ListNode *it = head; it != nullptr; it = it->next)
        *sum += it->key;
    return head;
}

void
freePoolList(ListNode *head)
{
    while (head != nullptr) {
        ListNode *next = head->next;
        std::free(head);
        head = next;
    }
}

/** Wall-clock stamp, comparable with file modification times. */
std::uint64_t
realtimeNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

int
runPaced(std::uint64_t seed, int ops_per_ms, int run_ms, int episodes,
         const char *late_path, bool pace)
{
    // Everything that allocates outside the churn (stdio buffers, the
    // tick log, the singleton table) is set up before the pool, in
    // both modes, so the steady heap a training run sees is the heap
    // a paced run has between its episodes.
    std::printf("paced start\n");
    std::fflush(stdout);
    std::FILE *late = std::fopen(late_path, "w");
    if (late == nullptr)
        return 1;
    std::vector<std::uint64_t> actual;
    actual.reserve(static_cast<std::size_t>(run_ms));
    std::vector<void *> singles;
    singles.reserve(kSingletons);

    Rng rng{seed * 0x2545f4914f6cdd1dull + 7};
    ListNode *pool[kPoolLists] = {};
    std::uint64_t sum = 0;
    for (ListNode *&list : pool)
        list = buildPoolList(&sum);

    // Episode k drifts during [onset, onset + hold): the run is cut in
    // equal windows and each onset falls at a seeded point of the
    // first part of its window, so the steady stretch before it is
    // long enough to re-arm the detector.
    const int window = run_ms / (episodes + 1);
    std::vector<int> onsets;
    onsets.reserve(static_cast<std::size_t>(episodes) + 1);
    for (int k = 0; k < episodes; ++k)
        onsets.push_back(window / 2 + k * window +
                         static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(window / 4))));
    const int hold = window / 3;
    std::size_t next_episode = 0;
    int release_at = -1;

    const Clock::time_point start = Clock::now();
    for (int tick = 0; tick < run_ms; ++tick) {
        if (pace)
            std::this_thread::sleep_until(
                start + std::chrono::milliseconds(tick));
        actual.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count()));
        if (next_episode < onsets.size() &&
            tick == onsets[next_episode]) {
            std::printf("onset_realtime_ns %llu\n",
                        static_cast<unsigned long long>(realtimeNs()));
            std::fflush(stdout);
            release_at = tick + hold;
            ++next_episode;
        }
        if (release_at >= 0 && tick < release_at) {
            for (int i = 0; i < kRampPerTick; ++i) {
                void *block = checked(std::malloc(24));
                std::memset(block, i & 0xff, 24);
                singles.push_back(block);
            }
        } else if (tick == release_at) {
            for (void *block : singles)
                std::free(block);
            singles.clear();
            release_at = -1;
        }
        for (int i = 0; i < ops_per_ms; ++i) {
            const std::uint64_t slot = rng.below(kPoolLists);
            freePoolList(pool[slot]);
            pool[slot] = buildPoolList(&sum);
        }
    }
    for (void *block : singles)
        std::free(block);
    for (ListNode *list : pool)
        freePoolList(list);

    for (std::uint64_t ns : actual)
        std::fprintf(late, "%llu\n", static_cast<unsigned long long>(ns));
    std::fclose(late);
    std::printf("paced ticks %zu checksum %llu\n", actual.size(),
                static_cast<unsigned long long>(sum));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "churn" && argc == 6)
        return runChurn(std::strtoull(argv[2], nullptr, 10),
                        std::atoi(argv[3]), std::atoi(argv[4]),
                        std::atoi(argv[5]));
    if ((mode == "paced" || mode == "steady") && argc == 7)
        return runPaced(std::strtoull(argv[2], nullptr, 10),
                        std::atoi(argv[3]), std::atoi(argv[4]),
                        std::atoi(argv[5]), argv[6], mode == "paced");
    std::fprintf(stderr,
                 "usage: churn_child churn SEED THREADS LIVE OPS\n"
                 "       churn_child paced|steady SEED OPS_PER_MS "
                 "RUN_MS EPISODES LATE_FILE\n");
    return 64;
}
