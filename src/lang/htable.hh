/**
 * @file
 * HTable: the paper's in-memory-database sketch (§4.4, last
 * paragraph): "A client thread with a read-only reference to the
 * database can access the state and process a query with its own
 * private snapshot of the database state. It constructs a view as a
 * new segment that specifies the result of the query, while
 * referencing data directly in the database itself."
 *
 * A table is a segment of row references (boxed row segments); a
 * query runs against one snapshot and materializes a *view*: a new
 * segment whose entries reference the selected rows' existing
 * segments — zero row copying, and the view remains valid (immutable)
 * no matter what later commits do to the table.
 */

#ifndef HICAMP_LANG_HTABLE_HH
#define HICAMP_LANG_HTABLE_HH

#include <functional>
#include <optional>

#include "common/backoff.hh"
#include "lang/hstring.hh"
#include "mem/plid_ref.hh"
#include "seg/iterator.hh"

namespace hicamp {

class HTable;

/**
 * An immutable query result: an ordered segment of references into
 * the base table's row data at the moment the query ran.
 */
class HView
{
  public:
    HView(Hicamp &hc, SegDesc desc, std::uint64_t rows)
        : hc_(&hc), desc_(desc), rows_(rows)
    {}

    HView(const HView &) = delete;
    HView &operator=(const HView &) = delete;

    HView(HView &&other) noexcept
        : hc_(other.hc_), desc_(other.desc_), rows_(other.rows_)
    {
        other.hc_ = nullptr;
    }

    ~HView()
    {
        if (hc_)
            SegBuilder(hc_->mem).release(desc_.root);
    }

    std::uint64_t size() const { return rows_; }

    /** Fetch row @p i of the view (a string payload). */
    HString
    row(std::uint64_t i) const
    {
        HICAMP_ASSERT(hc_ && i < rows_, "view row out of range");
        SegReader r(hc_->mem);
        WordMeta m;
        Word box = r.readWord(desc_.root, desc_.height, i, &m);
        HICAMP_ASSERT(box != 0 && m.isPlid(), "hole in view");
        SegDesc d = hc_->unboxSegment(box);
        SegBuilder(hc_->mem).retain(d.root);
        return HString::adopt(*hc_, d);
    }

  private:
    Hicamp *hc_;
    SegDesc desc_;
    std::uint64_t rows_;
};

/**
 * An append-only table of string rows with snapshot queries. Rows are
 * stored densely (row id = index); deletes tombstone the slot.
 */
class HTable
{
  public:
    explicit HTable(Hicamp &hc) : hc_(hc)
    {
        vsid_ = hc.vsm.create(SegDesc{}, kSegMergeUpdate);
    }

    ~HTable() { hc_.vsm.destroy(vsid_); }

    HTable(const HTable &) = delete;
    HTable &operator=(const HTable &) = delete;

    Vsid vsid() const { return vsid_; }

    /** Append a row; returns its row id. Safe under concurrency. */
    std::uint64_t
    insert(const HString &row)
    {
        IteratorRegister it(hc_.mem, hc_.vsm);
        CommitRetry retry(hc_.mem.retryPolicy(), &hc_.mem.contention());
        for (;;) {
            MemStatus st = MemStatus::Ok;
            try {
                it.load(vsid_, 0);
                SegBuilder(hc_.mem).retain(row.desc().root);
                // The handle owns the boxed row until the write buffer
                // takes it over: seek() can grow the working tree and
                // throw under memory pressure, which used to leak the
                // box's reference (the abort below only releases
                // buffer-owned words).
                PlidRef box =
                    PlidRef::adopt(hc_.mem, hc_.boxSegment(row.desc()));
                std::uint64_t id = it.read(); // word 0: row count
                it.write(id + 1);
                it.seek(1 + id);
                it.write(box.release(), WordMeta::plid());
                if (it.tryCommit())
                    return id;
                st = it.lastCommitStatus();
                // counter collided with a concurrent insert
            } catch (const MemPressureError &e) {
                // boxSegment/seek unwind leak-free on pressure; retry
                // like a conflict so injected faults are absorbed.
                st = e.status();
            }
            it.abort();
            if (!retry.onConflict())
                throwRetriesExhausted(st, "HTable::insert commit failed");
        }
    }

    /** Read one row (nullopt if deleted / out of range). */
    std::optional<HString>
    get(std::uint64_t row_id)
    {
        IteratorRegister it(hc_.mem, hc_.vsm);
        it.load(vsid_, 1 + row_id);
        WordMeta m;
        Word box = it.read(&m);
        if (box == 0 || !m.isPlid())
            return std::nullopt;
        SegDesc d = hc_.unboxSegment(box);
        SegBuilder(hc_.mem).retain(d.root);
        return HString::adopt(hc_, d);
    }

    /** Tombstone a row. */
    bool
    erase(std::uint64_t row_id)
    {
        IteratorRegister it(hc_.mem, hc_.vsm);
        CommitRetry retry(hc_.mem.retryPolicy(), &hc_.mem.contention());
        for (;;) {
            it.load(vsid_, 1 + row_id);
            if (it.read() == 0)
                return false;
            it.write(0);
            if (it.tryCommit())
                return true;
            const MemStatus st = it.lastCommitStatus();
            it.abort();
            if (!retry.onConflict())
                throwRetriesExhausted(st, "HTable::erase commit failed");
        }
    }

    /** Replace a row's payload (update). */
    bool
    update(std::uint64_t row_id, const HString &row)
    {
        IteratorRegister it(hc_.mem, hc_.vsm);
        CommitRetry retry(hc_.mem.retryPolicy(), &hc_.mem.contention());
        for (;;) {
            MemStatus st = MemStatus::Ok;
            try {
                it.load(vsid_, 1 + row_id);
                if (it.read() == 0)
                    return false;
                SegBuilder(hc_.mem).retain(row.desc().root);
                it.write(hc_.boxSegment(row.desc()), WordMeta::plid());
                if (it.tryCommit())
                    return true;
                st = it.lastCommitStatus();
            } catch (const MemPressureError &e) {
                st = e.status(); // leak-free unwind; retry as conflict
            }
            it.abort();
            if (!retry.onConflict())
                throwRetriesExhausted(st, "HTable::update commit failed");
        }
    }

    /** Committed row count (including tombstones). */
    std::uint64_t
    rowCount()
    {
        IteratorRegister it(hc_.mem, hc_.vsm);
        it.load(vsid_, 0);
        return it.read();
    }

    /**
     * Run a predicate query against ONE snapshot of the table and
     * materialize the result as a view. The view's entries reference
     * the matching rows' segments directly (no row data is copied);
     * the snapshot guarantees the predicate saw a consistent state
     * even while writers keep committing.
     *
     * A transient allocation failure while building the view is
     * retried on a fresh snapshot, like a lost commit in insert().
     * The retry leaks nothing: the failed build consumed the view's
     * row references.
     */
    HView
    select(const std::function<bool(const HString &)> &pred)
    {
        IteratorRegister it(hc_.mem, hc_.vsm); // pins the snapshot
        SegBuilder b(hc_.mem);
        CommitRetry retry(hc_.mem.retryPolicy(), &hc_.mem.contention());
        for (;;) {
            it.load(vsid_, 0);
            const std::uint64_t n = it.read();
            std::vector<Word> out;
            std::vector<WordMeta> metas;
            for (std::uint64_t i = 0; i < n; ++i) {
                it.seek(1 + i);
                WordMeta m;
                Word box = it.read(&m);
                if (box == 0 || !m.isPlid())
                    continue; // tombstone
                SegDesc d = hc_.unboxSegment(box);
                b.retain(d.root);
                HString row = HString::adopt(hc_, d);
                if (pred(row)) {
                    // The view references the row's existing box line.
                    hc_.mem.incRef(box);
                    out.push_back(box);
                    metas.push_back(WordMeta::plid());
                }
            }
            try {
                SegDesc view = out.empty()
                                   ? SegDesc{}
                                   : b.buildWords(out.data(), metas.data(),
                                                  out.size());
                return HView(hc_, view, out.size());
            } catch (const MemPressureError &) {
                if (!retry.onConflict())
                    throw;
            }
        }
    }

  private:
    Hicamp &hc_;
    Vsid vsid_;
};

} // namespace hicamp

#endif // HICAMP_LANG_HTABLE_HH
