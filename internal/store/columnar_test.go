package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metricdb/internal/vec"
)

// regularItems builds items with finite, well-spread coordinates (testItems
// mixes in 1e300-scale extremes that are legal for the format but awkward
// to eyeball).
func regularItems(n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		v := make(vec.Vector, dim)
		for d := range v {
			v[d] = float64((i*31+d*17)%97)/9.7 - 5
		}
		items[i] = Item{ID: ItemID(i + 1), Vec: v, Label: i % 3}
	}
	return items
}

func TestColumnizeAliasesAndPreserves(t *testing.T) {
	items := regularItems(23, 5)
	orig := make([]vec.Vector, len(items))
	for i := range items {
		orig[i] = append(vec.Vector(nil), items[i].Vec...)
	}
	pages, err := Paginate(items, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := Columnize(pages, false); err != nil || pages[0].Cols != nil {
		t.Fatalf("Columnize(false) built a block (err %v)", err)
	}
	if err := Columnize(pages, true); err != nil {
		t.Fatal(err)
	}
	k := 0
	for _, p := range pages {
		b := p.Cols
		if b == nil || b.N != len(p.Items) || b.Dim != 5 {
			t.Fatalf("page %d: block missing or misshapen: %+v", p.ID, b)
		}
		for i := range p.Items {
			if &p.Items[i].Vec[0] != &b.Item(i)[0] {
				t.Fatalf("page %d item %d: vector does not alias block row", p.ID, i)
			}
			for d, v := range p.Items[i].Vec {
				if math.Float64bits(v) != math.Float64bits(orig[k][d]) {
					t.Fatalf("page %d item %d dim %d: value changed %v -> %v", p.ID, i, d, orig[k][d], v)
				}
			}
			k++
		}
	}
	// Idempotent: a second pass must not rebuild anything.
	before := pages[0].Cols
	if err := Columnize(pages, true); err != nil {
		t.Fatal(err)
	}
	if pages[0].Cols != before {
		t.Fatal("re-columnize replaced an up-to-date block")
	}
}

func TestColumnSourceWrapsV1Reads(t *testing.T) {
	items := regularItems(40, 4)
	pages, err := Paginate(items, 16)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := NewDisk(pages)
	if err != nil {
		t.Fatal(err)
	}
	src := WrapColumns(disk, true)
	if src == PageSource(disk) {
		t.Fatal("columnar wrap returned the source unwrapped")
	}
	if WrapColumns(disk, false) != PageSource(disk) {
		t.Fatal("non-columnar wrap should return the source itself")
	}
	if UnwrapSource(src) != PageSource(disk) {
		t.Fatal("UnwrapSource did not strip the column wrapper")
	}
	for pid := 0; pid < src.NumPages(); pid++ {
		p, err := src.Read(PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		if p.Cols == nil || p.Cols.N != len(p.Items) {
			t.Fatalf("page %d read through wrapper lacks a columnar block", pid)
		}
	}
	if got, want := src.Stats().Reads, int64(src.NumPages()); got != want {
		t.Fatalf("wrapper forwarded %d reads, want %d", got, want)
	}
	if src.ResetStats().Reads == 0 || src.Stats().Reads != 0 {
		t.Fatal("wrapper did not forward ResetStats")
	}
}

// TestWriteDatasetColumnar round-trips a columnar dataset through the file
// disk: version-2 manifest, a block on every decoded page, and
// bit-identical coordinates.
func TestWriteDatasetColumnar(t *testing.T) {
	dir := t.TempDir()
	items := regularItems(50, 3)
	pages, err := Paginate(items, 8)
	if err != nil {
		t.Fatal(err)
	}
	meta := DatasetMeta{Dim: 3, PageCapacity: 8, Columnar: true,
		Attrs: map[string]string{"kind": "test"}}
	if err := WriteDataset(dir, pages, meta, WriteOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFileDisk(dir, FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	man := d.Manifest()
	if man.Version != FormatVersionColumnar || !man.Columnar {
		t.Fatalf("manifest misses columnar facts: %+v", man)
	}
	k := 0
	for pid := 0; pid < d.NumPages(); pid++ {
		p, err := d.Read(PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		b := p.Cols
		if b == nil || b.N != len(p.Items) {
			t.Fatalf("page %d decoded without a columnar block", pid)
		}
		for i := range p.Items {
			if p.Items[i].ID != items[k].ID || p.Items[i].Label != items[k].Label {
				t.Fatalf("page %d item %d identity mismatch", pid, i)
			}
			for dd, v := range p.Items[i].Vec {
				if math.Float64bits(v) != math.Float64bits(items[k].Vec[dd]) {
					t.Fatalf("page %d item %d dim %d: coordinate not bit-identical", pid, i, dd)
				}
			}
			k++
		}
	}
	if k != len(items) {
		t.Fatalf("read back %d items, wrote %d", k, len(items))
	}
}

// TestWriteDatasetPlainStaysV1 pins the compatibility promise: a build with
// no columnar requests still writes a version-1 dataset.
func TestWriteDatasetPlainStaysV1(t *testing.T) {
	dir := t.TempDir()
	pages, err := Paginate(regularItems(10, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDataset(dir, pages, DatasetMeta{Dim: 2}, WriteOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFileDisk(dir, FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	if d.Manifest().Version != FormatVersion || d.Manifest().Columnar {
		t.Fatalf("plain build produced manifest %+v", d.Manifest())
	}
	p, err := d.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cols != nil {
		t.Fatal("version-1 record decoded with a columnar block")
	}
}

// TestWriteDatasetAdoptsPageBlocks: pages that already arrive columnar force
// a version-2 dataset even when the meta requests nothing.
func TestWriteDatasetAdoptsPageBlocks(t *testing.T) {
	dir := t.TempDir()
	pages, err := Paginate(regularItems(20, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Columnize(pages, true); err != nil {
		t.Fatal(err)
	}
	if err := WriteDataset(dir, pages, DatasetMeta{Dim: 4}, WriteOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFileDisk(dir, FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	man := d.Manifest()
	if man.Version != FormatVersionColumnar || !man.Columnar {
		t.Fatalf("adopted manifest wrong: %+v", man)
	}
	p, err := d.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cols == nil {
		t.Fatal("adopted dataset pages decode without a block")
	}
}

// TestFileDiskRejectsSectionMismatch: a page record that claims a sibling
// section — here a retired float32 flag patched into a columnar record,
// with both checksums recomputed so it survives the CRC checks — is caught
// by the decoder, never silently served.
func TestFileDiskRejectsSectionMismatch(t *testing.T) {
	dir := t.TempDir()
	pages, err := Paginate(regularItems(12, 3), 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDataset(dir, pages, DatasetMeta{Dim: 3, Columnar: true}, WriteOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, man.PagesFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := data[:man.Pages[0].Length]
	binary.LittleEndian.PutUint32(rec[16:], 1) // retired float32 flag
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32.Checksum(rec[:len(rec)-4], castagnoli))
	man.Pages[0].CRC32C = crcOf(rec)
	body, err := EncodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), body, 0o666); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFileDisk(dir, FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	if _, err := d.Read(0); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("flagged record read returned %v, want ErrCorruptPage", err)
	}
	if d.Storage().ChecksumFailures != 1 {
		t.Fatalf("flagged record not counted as checksum failure: %+v", d.Storage())
	}
}

// legacyRecord encodes p in the retired version-2 layout that appended
// sibling sections after the float64 items: a float32 copy of every
// coordinate (flag bit 0) and one quantized cell code per coordinate
// (flag bit 1, with the code width in the word after the flags). The
// writer no longer produces these records; tests use them as inputs that
// must be rejected.
func legacyRecord(t testing.TB, p *Page, dim int, f32 bool, qbits int) []byte {
	t.Helper()
	if err := ColumnizePage(p); err != nil {
		t.Fatal(err)
	}
	if p.Cols == nil {
		p.Cols = vec.NewBlock(dim, 0)
	}
	rec, err := EncodePage(p, dim)
	if err != nil {
		t.Fatal(err)
	}
	rec = rec[:len(rec)-pageTrailerLen]
	var flags uint32
	if f32 {
		flags |= 1
		for _, v := range p.Cols.F64 {
			rec = binary.LittleEndian.AppendUint32(rec, math.Float32bits(float32(v)))
		}
	}
	if qbits > 0 {
		flags |= 2
		for i := range p.Cols.F64 {
			rec = append(rec, uint8(i%(1<<qbits)))
		}
	}
	binary.LittleEndian.PutUint32(rec[16:], flags)
	binary.LittleEndian.PutUint32(rec[20:], uint32(qbits))
	return binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, castagnoli))
}

// legacyDataset encodes items as a dataset in the retired float32/quant
// layout: legacy page records, and a manifest that carries the "f32" key
// and, for qbits > 0, a "quant" grid. It returns the manifest and page
// file bytes; the page file is named pages-g00000001.dat.
func legacyDataset(t testing.TB, items []Item, dim, capacity int, f32 bool, qbits int) (manifest, pageFile []byte) {
	t.Helper()
	pages, err := Paginate(items, capacity)
	if err != nil {
		t.Fatal(err)
	}
	man := Manifest{
		Magic: ManifestMagic, Version: FormatVersionColumnar, Generation: 1,
		Items: len(items), Dim: dim, PageCapacity: capacity,
		PagesFile: "pages-g00000001.dat", Columnar: true,
	}
	for _, p := range pages {
		rec := legacyRecord(t, p, dim, f32, qbits)
		man.Pages = append(man.Pages, PageEntry{
			Offset: int64(len(pageFile)), Length: int64(len(rec)),
			Items: len(p.Items), CRC32C: crcOf(rec),
		})
		pageFile = append(pageFile, rec...)
	}
	man.PagesBytes = int64(len(pageFile))
	plain, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(plain, &doc); err != nil {
		t.Fatal(err)
	}
	if f32 {
		doc["f32"] = true
	}
	if qbits > 0 {
		min, step := make([]float64, dim), make([]float64, dim)
		for d := range step {
			step[d] = 1
		}
		doc["quant"] = map[string]any{"bits": qbits, "min": min, "step": step}
	}
	manifest, err = json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return manifest, pageFile
}

// TestOpenFileDiskRejectsRetiredLayouts: a dataset written in the retired
// float32 or quantized layout fails when it is opened, with an
// ErrBadManifest naming the key and the rewrite command, instead of on
// the first page read; its page records are rejected as corrupt too.
func TestOpenFileDiskRejectsRetiredLayouts(t *testing.T) {
	items := regularItems(20, 3)
	for _, tc := range []struct {
		name  string
		f32   bool
		qbits int
		key   string
	}{
		{"f32", true, 0, `"f32"`},
		{"quant", false, 6, `"quant"`},
		{"f32+quant", true, 8, `"f32"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			manifest, pageFile := legacyDataset(t, items, 3, 8, tc.f32, tc.qbits)
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "pages-g00000001.dat"), pageFile, 0o666); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, ManifestName), manifest, 0o666); err != nil {
				t.Fatal(err)
			}
			d, err := OpenFileDisk(dir, FileDiskOptions{})
			if err == nil {
				d.Close() //nolint:errcheck
				t.Fatal("retired-layout dataset opened")
			}
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("open returned %v, want ErrBadManifest", err)
			}
			for _, want := range []string{tc.key, "msqgen -layout soa"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %s", err, want)
				}
			}
			p := &Page{ID: 0, Items: append([]Item(nil), items[:4]...)}
			if _, err := DecodePage(legacyRecord(t, p, 3, tc.f32, tc.qbits)); !errors.Is(err, ErrCorruptPage) {
				t.Errorf("legacy record decoded with %v, want ErrCorruptPage", err)
			}
		})
	}
	// Any flag bit, known once or never, is corrupt.
	for bit := 0; bit < 32; bit++ {
		p := &Page{ID: 0, Items: append([]Item(nil), items[:2]...)}
		rec := legacyRecord(t, p, 3, false, 0)
		binary.LittleEndian.PutUint32(rec[16:], 1<<bit)
		binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32.Checksum(rec[:len(rec)-4], castagnoli))
		if _, err := DecodePage(rec); !errors.Is(err, ErrCorruptPage) {
			t.Errorf("flag bit %d: decode returned %v, want ErrCorruptPage", bit, err)
		}
	}
}
