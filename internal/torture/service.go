package torture

import (
	"net/http/httptest"
	"slices"

	"strdict/internal/colstore"
	"strdict/internal/service"
)

// opServiceQuery is oracle 5: front the live store with the HTTP service
// layer (service.NewWithStores over the same *colstore.Store, empty tenant)
// and check that what comes back through /v1/count, /v1/scan and /v1/locate
// agrees with the naive model and with a directly pinned engine snapshot.
// Afterwards the server must hold zero pinned snapshots — the
// snapshot-per-request lifecycle may not leak even through the full HTTP
// encode/decode path.
func (h *harness) opServiceQuery() error {
	srv := service.NewWithStores([]*colstore.Store{h.s.Store}, service.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	cl := &service.Client{Base: ts.URL, HTTP: ts.Client()}
	h.logf("step %d: service query via %s", h.step, ts.URL)

	tb := h.s.Table("t")
	for _, c := range h.cols {
		snap := tb.Str(c.name).Snapshot()
		err := h.checkServiceColumn(cl, snap, c)
		snap.Release()
		if err != nil {
			return err
		}
	}
	if live := srv.PinnedSnapshots(); live != 0 {
		return h.fail("service: %d snapshots still pinned after quiescence", live)
	}
	if srv.TotalPins() == 0 {
		return h.fail("service: queries took no snapshot pins")
	}
	return nil
}

// checkServiceColumn compares the service's three query endpoints against
// the model slice and one pinned engine snapshot for a single column.
func (h *harness) checkServiceColumn(cl *service.Client, snap *colstore.Snapshot, c *column) error {
	probes := []string{
		c.pool[h.rng.Intn(len(c.pool))],
		c.pool[h.rng.Intn(len(c.pool))] + "\x01absent",
	}
	for _, p := range probes {
		want := 0
		for _, v := range c.model {
			if v == p {
				want++
			}
		}
		got, err := cl.CountEq("", "t", c.name, p)
		if err != nil {
			return h.fail("service: CountEq(%s, %q): %v", c.name, p, err)
		}
		if got != want {
			return h.fail("service: CountEq(%s, %q)=%d model=%d", c.name, p, got, want)
		}
		sc, err := cl.ScanEq("", "t", c.name, p)
		if err != nil {
			return h.fail("service: ScanEq(%s, %q): %v", c.name, p, err)
		}
		engine := snap.ScanEq(p, nil)
		if sc.Count != len(engine) {
			return h.fail("service: ScanEq(%s, %q) count=%d engine=%d", c.name, p, sc.Count, len(engine))
		}
		// The response carries at most MaxScanRows indices; the prefix must
		// match the engine's row list exactly.
		if !slices.Equal(sc.Rows, engine[:len(sc.Rows)]) {
			return h.fail("service: ScanEq(%s, %q) rows diverge from engine", c.name, p)
		}
		code, found, err := cl.Locate("", "t", c.name, p)
		if err != nil {
			return h.fail("service: Locate(%s, %q): %v", c.name, p, err)
		}
		wantCode, wantFound := snap.Locate(p)
		if found != wantFound || code != wantCode {
			return h.fail("service: Locate(%s, %q)=(%d,%v) engine=(%d,%v)",
				c.name, p, code, found, wantCode, wantFound)
		}
	}

	lo := c.pool[h.rng.Intn(len(c.pool))]
	hi := c.pool[h.rng.Intn(len(c.pool))]
	if lo > hi {
		lo, hi = hi, lo
	}
	rc, err := cl.ScanRange("", "t", c.name, lo, hi)
	if err != nil {
		return h.fail("service: ScanRange(%s, %q, %q): %v", c.name, lo, hi, err)
	}
	want := 0
	for _, v := range c.model {
		if v >= lo && v < hi {
			want++
		}
	}
	if rc.Count != want {
		return h.fail("service: ScanRange(%s, %q, %q) count=%d model=%d", c.name, lo, hi, rc.Count, want)
	}
	return nil
}
