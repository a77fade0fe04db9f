package metadata

import (
	"bytes"
	"testing"
)

// FuzzCatalogLoad feeds arbitrary bytes to Catalog.Load: a hostile or
// torn catalog image must produce an error, never a panic, and an image
// that loads must answer range queries. The seed is a saved image.
func FuzzCatalogLoad(f *testing.F) {
	c, _ := addGridChunks(f, 2, 2, 2)
	f.Add(saveImage(f, c))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCatalog()
		if err := c.Load(bytes.NewReader(data)); err != nil {
			return
		}
		for _, def := range c.Tables() {
			if _, err := c.ChunksInRange(def.Name, Range{}); err != nil {
				t.Fatalf("table %s: %v", def.Name, err)
			}
			r := Range{Attrs: []string{"x"}, Lo: []float64{0}, Hi: []float64{5}}
			if def.Schema.Index("x") >= 0 {
				_, _ = c.ChunksInRange(def.Name, r)
			}
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatalf("re-save of a loaded image: %v", err)
		}
	})
}
