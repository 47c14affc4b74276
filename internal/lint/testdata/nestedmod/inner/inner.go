// Package inner belongs to the nested module: it imports by that
// module's path, which the enclosing tree's loader cannot resolve.
package inner

import "inner/sub"

// Name identifies the package.
const Name = "inner/" + sub.Name
