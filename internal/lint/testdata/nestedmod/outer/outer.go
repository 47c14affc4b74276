// Package outer is the one package LoadTree should find under
// testdata/nestedmod: its sibling directory is a module of its own.
package outer

// Name identifies the package.
const Name = "outer"
