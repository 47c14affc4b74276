// Package sub is a package of the nested module.
package sub

// Name identifies the package.
const Name = "sub"
