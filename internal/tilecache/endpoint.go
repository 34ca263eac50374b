package tilecache

import (
	"context"
	"fmt"

	"geosel/internal/geodata"
)

// DefaultTileTheta is the visibility threshold a bare tile request
// implies: a zoom-z tile is half of the viewport zoomFor matches to it,
// so the session-equivalent θ is thetaFrac of twice the tile side.
// Clients wanting a specific θ pass it explicitly.
func DefaultTileTheta(z int32, thetaFrac float64) float64 {
	return thetaFrac * 2 * Side(z)
}

// ValidTile reports whether (z, x, y) addresses a tile of the cache's
// pyramid: zoom in [0, maxZoom] and x, y inside that zoom's grid.
func ValidTile(z, x, y int) bool {
	if z < 0 || z > maxZoom {
		return false
	}
	n := 1 << uint(z)
	return x >= 0 && x < n && y >= 0 && y < n
}

// TilePayload serves one materialized tile in the wire format (see
// wire.go), appended to dst, together with its strong ETag. The ETag
// is derived from the key plus the entry's compute version, which fully
// determine the payload bytes — equal ETags imply equal payloads, so
// If-None-Match revalidation and CDN caching are sound.
//
// version must be the view's pinned snapshot version; the returned tile
// is validated against it exactly like a stitched viewport's tiles.
func (c *Cache) TilePayload(ctx context.Context, view geodata.View, version uint64, z, x, y int, theta float64, k int, dst []byte) ([]byte, string, error) {
	if !ValidTile(z, x, y) {
		return nil, "", fmt.Errorf("tilecache: tile (%d, %d, %d) outside the zoom-[0, %d] pyramid", z, x, y, maxZoom)
	}
	if k <= 0 {
		return nil, "", fmt.Errorf("tilecache: k = %d must be positive", k)
	}
	if theta < 0 {
		return nil, "", fmt.Errorf("tilecache: theta = %v must be non-negative", theta)
	}
	dv, _ := view.(DirtyView)
	c.sync(dv, version)
	key := Key{
		T:    Tile{Z: int32(z), X: int32(x), Y: int32(y)},
		Band: bandFor(theta, int32(z), c.bands),
		K:    int32(k),
	}
	sc := c.getScratch()
	e, _, err := c.getTile(ctx, view, dv, version, key, sc)
	c.putScratch(sc)
	if err != nil {
		return nil, "", err
	}
	etag := fmt.Sprintf("\"gst1-%d-%d-%d-b%d-k%d-v%d\"", z, x, y, key.Band, k, e.born)
	return appendWire(dst, e, view.Collection().Objects), etag, nil
}
