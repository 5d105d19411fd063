// Fixture: explicit orderings — including the argument landing on a
// continuation line — and a comment mentioning counter.load() must all
// stay silent.
#include <atomic>

std::atomic<int> g_counter{0};

int bump()
{
    g_counter.store(1, std::memory_order_relaxed);
    int v = g_counter.load(std::memory_order_acquire);
    v += g_counter.fetch_add(
        1, std::memory_order_acq_rel);
    int expected = 2;
    g_counter.compare_exchange_strong(expected, 3,
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed);
    return v;
}

// The rule is textual, so non-atomic accessors avoid the .load() name
// (the convention behind metrics::Counter::value() in the registry).
struct Plain
{
    int value() const { return basis_; }
    int basis_ = 0;
};

int reload(const Plain &p)
{
    return p.value();
}
