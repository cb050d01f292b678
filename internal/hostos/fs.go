package hostos

import (
	"fmt"
	"sort"
)

// BlockSize is the file system and NVMe logical block size.
const BlockSize = 4096

// Extent is a contiguous run of logical blocks on the SSD.
type Extent struct {
	LBA    uint64 // starting logical block address
	Blocks int    // run length in blocks
}

// File is a file's metadata: size and extent map. Contents live on the
// (simulated) SSD; the page cache may shadow individual pages.
type File struct {
	Name    string
	Size    int
	extents []Extent
}

// Extents returns the file's extent map.
func (f *File) Extents() []Extent { return append([]Extent(nil), f.extents...) }

// Blocks returns the number of logical blocks backing the file.
func (f *File) Blocks() int { return (f.Size + BlockSize - 1) / BlockSize }

// LBAs returns every backing LBA in file order.
func (f *File) LBAs() []uint64 {
	out := make([]uint64, 0, f.Blocks())
	for _, e := range f.extents {
		for i := 0; i < e.Blocks; i++ {
			out = append(out, e.LBA+uint64(i))
		}
	}
	return out
}

// LBARange maps the byte range [off, off+n) to backing LBAs.
func (f *File) LBARange(off, n int) ([]uint64, error) {
	if off < 0 || n < 0 || off+n > f.Size {
		return nil, fmt.Errorf("hostos: range [%d,%d) outside file %s size %d", off, off+n, f.Name, f.Size)
	}
	all := f.LBAs()
	first := off / BlockSize
	last := (off + n - 1) / BlockSize
	if n == 0 {
		return nil, nil
	}
	return all[first : last+1], nil
}

// pageState tracks one cached page.
type pageState struct {
	data  []byte
	dirty bool
}

// FileSystem manages file metadata, extent allocation on a simulated
// volume, and a page cache with dirty tracking. The stock-kernel
// ("Vanilla") path reads and writes through the cache; the optimized
// and DCS-ctrl paths bypass it, with DCS-ctrl's HDC Driver consulting
// Dirty() for the consistency check described in §IV-B.
type FileSystem struct {
	files   map[string]*File
	nextLBA uint64
	volume  uint64 // volume size in blocks

	cache      map[string]map[int]*pageState // file -> page index -> state
	cachePages int
	hits       int64
	misses     int64
}

// NewFileSystem returns an empty file system over a volume of the
// given size in bytes.
func NewFileSystem(volumeBytes uint64) *FileSystem {
	return &FileSystem{
		files:  map[string]*File{},
		volume: volumeBytes / BlockSize,
		cache:  map[string]map[int]*pageState{},
	}
}

// Create allocates a file of the given size. Extents are allocated in
// runs of up to 256 blocks (1 MB) to mimic a mostly-sequential but
// fragmented real volume.
func (fs *FileSystem) Create(name string, size int) (*File, error) {
	if _, exists := fs.files[name]; exists {
		return nil, fmt.Errorf("hostos: file %s exists", name)
	}
	if size < 0 {
		return nil, fmt.Errorf("hostos: negative size %d", size)
	}
	f := &File{Name: name, Size: size}
	blocks := f.Blocks()
	const maxRun = 256
	for blocks > 0 {
		run := blocks
		if run > maxRun {
			run = maxRun
		}
		if fs.nextLBA+uint64(run) > fs.volume {
			return nil, fmt.Errorf("hostos: volume full creating %s", name)
		}
		f.extents = append(f.extents, Extent{LBA: fs.nextLBA, Blocks: run})
		fs.nextLBA += uint64(run)
		blocks -= run
	}
	fs.files[name] = f
	return f, nil
}

// Files returns all file names, sorted.
func (fs *FileSystem) Files() []string {
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CacheLookup returns the cached page, if present, and counts the
// hit/miss.
func (fs *FileSystem) CacheLookup(name string, page int) ([]byte, bool) {
	if ps, ok := fs.cache[name][page]; ok {
		fs.hits++
		return ps.data, true
	}
	fs.misses++
	return nil, false
}

// CacheFill inserts a clean page (after a read from the device).
func (fs *FileSystem) CacheFill(name string, page int, data []byte) {
	fs.insert(name, page, data, false)
}

// CacheWrite inserts or updates a dirty page (buffered write).
func (fs *FileSystem) CacheWrite(name string, page int, data []byte) {
	fs.insert(name, page, data, true)
}

func (fs *FileSystem) insert(name string, page int, data []byte, dirty bool) {
	m, ok := fs.cache[name]
	if !ok {
		m = map[int]*pageState{}
		fs.cache[name] = m
	}
	if _, existed := m[page]; !existed {
		fs.cachePages++
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m[page] = &pageState{data: cp, dirty: dirty}
}

// Dirty returns the indices of dirty cached pages of the file, sorted
// — the set the HDC Driver must reconcile before issuing a D2D read.
func (fs *FileSystem) Dirty(name string) []int {
	var out []int
	for idx, ps := range fs.cache[name] {
		if ps.dirty {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// CleanPage marks a page clean (after writeback) and returns its data.
func (fs *FileSystem) CleanPage(name string, page int) ([]byte, bool) {
	ps, ok := fs.cache[name][page]
	if !ok {
		return nil, false
	}
	ps.dirty = false
	return ps.data, true
}

// CachedPages returns the number of resident pages.
func (fs *FileSystem) CachedPages() int { return fs.cachePages }

// CacheStats returns hits and misses.
func (fs *FileSystem) CacheStats() (hits, misses int64) { return fs.hits, fs.misses }
