package sample

import "repro/internal/storage"

// Lineage is the build watermark of a materialized sample: the source
// table's version and row count at construction time. It is the minimal
// provenance needed to attribute estimator failures observed later (e.g.
// by an accuracy audit) to data that arrived after the sample was drawn,
// as opposed to a defective estimator.
type Lineage struct {
	Version uint64
	Rows    int
}

// Lineage returns the build watermark recorded at construction.
func (r *StratifiedResult) Lineage() Lineage {
	return Lineage{Version: r.BuildVersion, Rows: r.SourceRows}
}

// Fresh reports whether the source table is unchanged since the build.
func (l Lineage) Fresh(src *storage.Table) bool {
	return src != nil && src.Version() == l.Version
}
